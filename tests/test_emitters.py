"""Every artifact renderer writes exactly ``json.dumps(doc, indent=2) + "\\n"``.

The renderers build their text directly; the ``*_to_json_dict`` documents
are what they must reproduce byte for byte. A large artifact comes in
chunks, and their concatenation is what is compared. ``instance.json``
and ``events.json`` have no document in the package: the instance
document and the event records are written out below, the records from
the event tuples, whose content tests/test_execution.py checks against
the round-by-round reference.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from pcnflow import model
from pcnflow.cycles import CycleFlow, Decomposition, decomposition_to_json_dict, dump_decomposition
from pcnflow.execution import (
    AdversarySpec,
    Ledger,
    Policy,
    events_json_chunks,
    events_to_json,
    executions_json_chunks,
    executions_to_json_dict,
    ledger_to_json,
    ledger_to_json_dict,
    make_execution,
    run_execution,
)
from pcnflow.model import (
    RECORDS_PER_CHUNK,
    ChannelConstraint,
    build_instance,
    dump_instance,
    write_text,
)
from pcnflow.mpc import Transcript
from pcnflow.solver import Circulation, circulation_to_json_dict, dump_circulation

# Non-ASCII ids and ids that need escaping. ``model.is_node_id`` rejects ids
# containing "->", so only the cycle strategies, which build ``CycleFlow``
# directly rather than through ``build_instance``, add ids that look like a
# channel key.
NODES = ["A", "B", "C", "D", "ü", "節点", "\U0001f4b8", 'q"\\', "tab\there", "p"]
CYCLE_NODES = NODES + ["q->p", "p->q"]
AMOUNT = st.integers(1, 2**60)


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def instance_to_json_dict(instance) -> dict:
    """The document ``instance.json`` holds."""
    return {
        "nodes": list(instance.nodes),
        "edges": [
            {"from": e.src, "to": e.dst, "capacity": e.capacity, "weight": e.weight}
            for e in instance.edges
        ],
        "weight_bound": instance.weight_bound,
        "capacity_bound": instance.capacity_bound,
    }


def _event_records(ledger: Ledger) -> list[dict]:
    return [
        {"round": r, "event": kind, "cycle": c, "node" if kind == "reveal" else "htlc": target}
        for r, kind, c, target in ledger.events
    ]


@st.composite
def circulations(draw):
    """A canonical instance (possibly without edges) and arbitrary flows on it."""
    nodes = draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=len(NODES), unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=20))
    edges = {}
    for u, v in pairs:
        if u != v and (v, u) not in edges:
            edges[(u, v)] = ChannelConstraint(
                u, v, draw(st.integers(1, 2**60)), draw(st.integers(0, 2**10))
            )
    instance = build_instance(nodes, edges.values(), capacity_bound=2**60, weight_bound=2**10)
    flows = tuple(draw(st.integers(0, e.capacity)) for e in instance.edges)
    return Circulation(instance, flows)


@st.composite
def cycle_flows(draw, max_cycles=6):
    return tuple(
        CycleFlow(
            tuple(draw(st.lists(st.sampled_from(CYCLE_NODES), min_size=2, max_size=8,
                                unique=True))),
            draw(AMOUNT),
        )
        for _ in range(draw(st.integers(0, max_cycles)))
    )


@st.composite
def executions_and_adversary(draw):
    executions = []
    for i, cycle in enumerate(draw(cycle_flows())):
        initiator = draw(st.sampled_from(cycle.vertices))
        executions.append(make_execution(cycle, initiator, bytes([i]) * 32))
    policies = draw(
        st.dictionaries(
            st.sampled_from(CYCLE_NODES),
            st.sampled_from([Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY]),
        )
    )
    return executions, AdversarySpec(policies)


class TestDirectEmitters:
    @settings(max_examples=150)
    @given(circulations())
    def test_instance_and_circulation(self, circ):
        assert dump_instance(circ.instance) == _dumped(instance_to_json_dict(circ.instance))
        assert dump_circulation(circ) == _dumped(circulation_to_json_dict(circ))

    @settings(max_examples=100)
    @given(circulations(), cycle_flows())
    def test_decomposition(self, circ, cycles):
        dec = Decomposition(cycles, circ)
        assert dump_decomposition(dec) == _dumped(decomposition_to_json_dict(dec))

    @settings(max_examples=150)
    @given(executions_and_adversary(), st.booleans())
    def test_ledger_and_events(self, case, honest):
        executions, adversary = case
        ledger, _ = run_execution(executions, AdversarySpec.honest() if honest else adversary)
        assert ledger_to_json(ledger) == _dumped(ledger_to_json_dict(ledger))
        assert "".join(events_json_chunks(ledger)) == _dumped(_event_records(ledger))
        assert events_to_json(ledger) == "".join(events_json_chunks(ledger))

    @settings(max_examples=100)
    @given(executions_and_adversary())
    def test_executions(self, case):
        executions, adversary = case
        run_execution(executions, adversary)
        chunks = list(executions_json_chunks(executions))
        assert "".join(chunks) == _dumped(executions_to_json_dict(executions))
        assert all(chunk.count('"vertices"') <= 1 for chunk in chunks)  # one cycle per chunk

    def test_empty_documents(self):
        assert ledger_to_json(Ledger()) == _dumped({"deltas": {}, "rounds": 0})
        assert list(events_json_chunks(Ledger())) == ["[]\n"]
        assert events_to_json(Ledger()) == "[]\n"
        assert list(executions_json_chunks([])) == ["[]\n"]
        assert list(Transcript((), (), 0).chunks()) == [] and Transcript((), (), 0).dumps() == ""
        circ = Circulation(build_instance(["A", "B"], []), ())
        assert dump_instance(circ.instance) == _dumped(instance_to_json_dict(circ.instance))
        assert dump_circulation(circ) == '{\n  "flows": [],\n  "objective": 0\n}\n'
        assert dump_decomposition(Decomposition((), circ)) == '{\n  "cycles": []\n}\n'

    def test_colliding_channel_keys(self):
        # Node "p" pays "q->p" and is paid by "p->q": both channels print as
        # "p->q->p", and the document has one such key.
        ledger = Ledger(deltas={"p": {("p", "q->p"): -2, ("p->q", "p"): 5}})
        assert ledger_to_json(ledger) == _dumped(ledger_to_json_dict(ledger))


def _executions_with_events(count: int) -> list:
    """Executions whose run has ``count`` events (0, 3, or at least 7) when
    "w0" withholds: its cycle aborts, with L+1 events for its length L (its
    initiator's reveal and L refunds), and the other completes, with 2L
    (a reveal per node and L settles)."""
    aborted = 2 if count % 2 else 3
    lengths = {"w": aborted, "n": (count - aborted - 1) // 2} if count else {}
    return [
        make_execution(CycleFlow(tuple(f"{p}{j}" for j in range(n)), 1), f"{p}0", b"\x01" * 32)
        for p, n in lengths.items()
        if n
    ]


class TestChunks:
    """The large artifacts stream in bounded chunks that join to the
    document's text, on both sides of each chunk boundary."""

    @pytest.mark.parametrize(
        "count", [0, 3, RECORDS_PER_CHUNK, RECORDS_PER_CHUNK + 1, 2 * RECORDS_PER_CHUNK + 1]
    )
    def test_events_around_the_chunk_boundary(self, count):
        executions = _executions_with_events(count)
        ledger, _ = run_execution(executions, AdversarySpec({"w0": Policy.WITHHOLD_PREIMAGE}))
        chunks = list(events_json_chunks(ledger))
        assert "".join(chunks) == _dumped(_event_records(ledger))
        assert len(ledger.events) == count
        assert max(chunk.count('"round"') for chunk in chunks) == min(count, RECORDS_PER_CHUNK)

    @pytest.mark.parametrize(
        "count, rounds",
        [(0, 1), (1, 1), (RECORDS_PER_CHUNK, 1), (RECORDS_PER_CHUNK + 1, 1),
         (RECORDS_PER_CHUNK + 1, 0), (RECORDS_PER_CHUNK + 1, 2)],
        ids=["0", "1", "4096", "4097", "4097-0-rounds", "4097-2-rounds"],
    )
    def test_transcript_around_the_chunk_boundary(self, count, rounds):
        # The transcript streams a round to a chunk, after its prologue.
        prologue = ("mul public", "add")
        transcript = Transcript(prologue, tuple(f"op{i}" for i in range(count)), rounds)
        chunks = list(transcript.chunks())
        assert transcript.ops == prologue + transcript.body * rounds
        assert "".join(chunks) == "".join(f"{op}\n" for op in transcript.ops)
        assert transcript.dumps() == "".join(chunks)
        assert chunks == ["mul public\nadd\n"] + [chunks[-1]] * (rounds if count else 0)


class _Recorder:
    """A file stand-in that records what it is handed."""

    def __init__(self):
        self.calls = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, text):
        self.calls.append(text)

    def writelines(self, lines):
        self.calls.extend(lines)


class TestWriteText:
    def test_bare_string_is_one_chunk(self, monkeypatch):
        recorder = _Recorder()
        monkeypatch.setattr(model, "open", lambda *a, **k: recorder, raising=False)
        write_text("unused", "whole text")
        assert recorder.calls == ["whole text"]

    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(str(path), (part for part in ["[\n", "ü", "", "\n]\n"]))
        assert path.read_bytes() == "[\nü\n]\n".encode("utf-8")
        write_text(str(path), iter(()))
        assert path.read_bytes() == b""
