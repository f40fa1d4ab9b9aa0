"""Every artifact renderer writes exactly ``json.dumps(doc, indent=2) + "\\n"``.

The renderers build their text directly; the ``*_to_json_dict`` documents
are what they must reproduce byte for byte. ``events.json`` has no
document in the package: its records are written out below from the
event tuples, whose content tests/test_execution.py checks against the
round-by-round reference.
"""

import json

from hypothesis import given, settings, strategies as st

from pcnflow.cycles import CycleFlow, Decomposition, decomposition_to_json_dict, dump_decomposition
from pcnflow.execution import (
    AdversarySpec,
    Ledger,
    Policy,
    events_to_json,
    ledger_to_json,
    ledger_to_json_dict,
    make_execution,
    run_execution,
)
from pcnflow.model import ChannelConstraint, build_instance, dump_instance, instance_to_json_dict
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
        assert events_to_json(ledger) == _dumped(_event_records(ledger))

    def test_empty_documents(self):
        assert ledger_to_json(Ledger()) == _dumped({"deltas": {}, "rounds": 0})
        assert events_to_json(Ledger()) == "[]\n"
        circ = Circulation(build_instance(["A", "B"], []), ())
        assert dump_instance(circ.instance) == _dumped(instance_to_json_dict(circ.instance))
        assert dump_circulation(circ) == '{\n  "flows": [],\n  "objective": 0\n}\n'
        assert dump_decomposition(Decomposition((), circ)) == '{\n  "cycles": []\n}\n'

    def test_colliding_channel_keys(self):
        # Node "p" pays "q->p" and is paid by "p->q": both channels print as
        # "p->q->p", and the document has one such key.
        ledger = Ledger(deltas={"p": {("p", "q->p"): -2, ("p->q", "p"): 5}})
        assert ledger_to_json(ledger) == _dumped(ledger_to_json_dict(ledger))
