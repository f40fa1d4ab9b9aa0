"""Fuzz the CLI with random instance, adversary, decomposition and
circulation documents, and with input files of raw bytes.

Whatever the files hold, `main` must return 0 (accepted) or 1
(malformed input, reported on stderr); exit 2 is reserved for a broken
internal invariant and no exception may escape.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, strategies as st

from pcnflow.cli import main

# Any JSON value, kept small.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def mostly(good, odds=8, bad=JSON):
    """``good`` most of the time, else ``bad``: the documents reach the
    checks past the top-level shape as well as the shape checks."""
    return st.integers(0, odds - 1).flatmap(lambda i: bad if i == 0 else good)


NAME = mostly(st.sampled_from(["A", "B", "C", "D"]), odds=20)
NUMBER = mostly(
    st.integers(0, 5), bad=st.sampled_from([-1, True, False, 2**62, 1.0]) | JSON
)
EDGE = mostly(
    st.fixed_dictionaries(
        {"from": NAME, "to": NAME, "capacity": NUMBER},
        optional={"weight": NUMBER},
    )
)
INSTANCE = mostly(
    st.fixed_dictionaries(
        {
            "nodes": mostly(
                st.just(["A", "B", "C", "D"]),
                odds=2,
                bad=mostly(st.lists(NAME, max_size=4, unique_by=str)),
            ),
            "edges": mostly(st.lists(EDGE, max_size=5)),
        },
        optional={"weight_bound": NUMBER, "capacity_bound": NUMBER},
    )
)
POLICY = mostly(st.sampled_from(["honest", "withhold_preimage", "delay_settle_to_expiry"]))
ADVERSARY = mostly(
    st.fixed_dictionaries(
        {"policies": mostly(st.dictionaries(st.sampled_from("ABCD"), POLICY, max_size=4))}
    )
)
CYCLE = mostly(
    st.fixed_dictionaries(
        {"vertices": mostly(st.lists(NAME, max_size=4, unique_by=str)), "weight": NUMBER}
    )
)
DECOMPOSITION = mostly(st.fixed_dictionaries({"cycles": mostly(st.lists(CYCLE, max_size=4))}))
FLOW = mostly(st.fixed_dictionaries({"from": NAME, "to": NAME, "amount": NUMBER}))
CIRCULATION = mostly(
    st.fixed_dictionaries(
        {"flows": mostly(st.lists(FLOW, max_size=6))}, optional={"objective": NUMBER}
    )
)

# A valid instance, so verify runs every check on the fuzzed artifacts.
FIXED_INSTANCE = {
    "nodes": ["A", "B", "C", "D"],
    "edges": [
        {"from": "A", "to": "B", "capacity": 3, "weight": 1},
        {"from": "B", "to": "C", "capacity": 2, "weight": 1},
        {"from": "C", "to": "A", "capacity": 4, "weight": 1},
        {"from": "C", "to": "D", "capacity": 1, "weight": 1},
        {"from": "D", "to": "A", "capacity": 1, "weight": 1},
    ],
    "weight_bound": 1,
    "capacity_bound": 4,
}


def _main_quietly(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(INSTANCE, ADVERSARY | st.none(), st.booleans())
def test_run_never_escapes(instance, adversary, private):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "instance.json").write_text(json.dumps(instance))
        argv = ["run", str(root / "instance.json"), "--outdir", str(root / "out")]
        if adversary is not None:
            (root / "adversary.json").write_text(json.dumps(adversary))
            argv += ["--adversary", str(root / "adversary.json")]
        if private:
            argv += ["--mpc", "--k", "2", "--schedule", "1"]
        assert _main_quietly(argv) in (0, 1)


@given(DECOMPOSITION, ADVERSARY | st.none())
def test_execute_never_escapes(decomposition, adversary):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "dec.json").write_text(json.dumps(decomposition))
        argv = ["execute", "--decomposition", str(root / "dec.json"), "--outdir", str(root / "out")]
        if adversary is not None:
            (root / "adversary.json").write_text(json.dumps(adversary))
            argv += ["--adversary", str(root / "adversary.json")]
        assert _main_quietly(argv) in (0, 1)


@given(CIRCULATION, DECOMPOSITION | st.none(), st.booleans())
def test_decompose_and_verify_never_escape(circulation, decomposition, use_verify):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "instance.json").write_text(json.dumps(FIXED_INSTANCE))
        (root / "circ.json").write_text(json.dumps(circulation))
        command = "verify" if use_verify else "decompose"
        argv = [command, str(root / "instance.json"), "--circulation", str(root / "circ.json")]
        if use_verify and decomposition is not None:
            (root / "dec.json").write_text(json.dumps(decomposition))
            argv += ["--decomposition", str(root / "dec.json")]
        assert _main_quietly(argv) in (0, 1)


DELEGATES = mostly(
    st.fixed_dictionaries({"k": NUMBER, "delegates": mostly(st.lists(NAME, max_size=4))})
)


@given(CIRCULATION, DELEGATES)
def test_verify_outdir_never_escapes(circulation, delegates):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "out").mkdir()
        for name in ("instance.json", "out/instance.json"):
            (root / name).write_text(json.dumps(FIXED_INSTANCE))
        (root / "out" / "circulation.json").write_text(json.dumps(circulation))
        (root / "out" / "delegates.json").write_text(json.dumps(delegates))
        argv = ["verify", str(root / "instance.json"), "--outdir", str(root / "out")]
        assert _main_quietly(argv) in (0, 1)


def _json_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


# File contents the JSON strategies cannot reach: arbitrary bytes, nesting
# deeper than the parser recurses, and integer literals longer than the
# interpreter converts, alone or inside a document.
RAW = (
    st.binary(max_size=40)
    | st.sampled_from([b"[" * 200_000, b'{"cycles": ' + b"[" * 100_000, b"1" * 5000])
    | st.integers(4301, 6000).map(lambda digits: b'{"flows": [], "objective": ' + b"7" * digits + b"}")
    | st.binary(max_size=8).map(lambda tail: b'{"nodes": ["\xff' + tail + b'"]}')
)


def file_content(document):
    return document.map(_json_bytes) | RAW


# Per command, its input files: (file name, flag or None for a positional
# argument, contents). verify --outdir reads four files of its directory.
COMMANDS = {
    "run": [("instance.json", None, INSTANCE), ("adversary.json", "--adversary", ADVERSARY)],
    "execute": [("dec.json", "--decomposition", DECOMPOSITION),
                ("adversary.json", "--adversary", ADVERSARY)],
    "decompose": [("instance.json", None, st.just(FIXED_INSTANCE)),
                  ("circ.json", "--circulation", CIRCULATION)],
    "verify": [("instance.json", None, st.just(FIXED_INSTANCE)),
               ("out/instance.json", None, st.just(FIXED_INSTANCE)),
               ("out/circulation.json", "--outdir", CIRCULATION),
               ("out/decomposition.json", None, DECOMPOSITION),
               ("out/report.json", None, st.just({"objective": 3, "iterations": 1,
                                                  "terminated_early": False}))],
}


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
def test_raw_bytes_never_escape(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "out").mkdir()
        argv = [command]
        for name, flag, document in COMMANDS[command]:
            (root / name).write_bytes(data.draw(file_content(document), label=name))
            if flag == "--outdir":
                argv += [flag, str(root / "out")]
            elif flag is not None:
                argv += [flag, str(root / name)]
            elif "/" not in name:
                argv.append(str(root / name))
        if command in ("run", "execute"):
            argv += ["--outdir", str(root / "new")]
        assert _main_quietly(argv) in (0, 1)
