"""Smoke test of the benchmark at tiny sizes, and of its failure counting.

Run from the repository root: python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import harness  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "rebalance": wl.Sizes(batch=2, nodes=20, edges=40, cap_max=2**20, weight_max=1),
    "settle-adversarial": wl.Sizes(
        batch=2, nodes=30, cap_max=2**20, cycles=20, max_len=10, corrupt_frac=0.15
    ),
    "mpc-private": wl.Sizes(batch=2, nodes=4, edges=5, cap_max=1, weight_max=1),
}

# Runs the real CLI; after `run`, adds one coin to the first flow of circulation.json.
TAMPERING_CLI = """
import json, sys
from pcnflow.cli import main
code = main(sys.argv[1:])
if sys.argv[1] == "run":
    path = sys.argv[sys.argv.index("--outdir") + 1] + "/circulation.json"
    with open(path) as fh:
        doc = json.load(fh)
    doc["flows"][0]["amount"] += 1
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\\n")
sys.exit(code)
"""


def _bench(workload, trace, tmp_path, program=None, seed=3):
    program = program or harness.Program.from_source(SRC)
    return harness.run_benchmark(
        workload, TINY[workload], seed, 0, trace, tmp_path / "work", program
    )["result"]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, tmp_path):
    result = _bench(workload, trace, tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert json.loads(json.dumps(result)) == result


def test_tampered_artifact_counts_as_failed_invocation(tmp_path):
    script = tmp_path / "tampering_cli.py"
    script.write_text(TAMPERING_CLI)
    honest = harness.Program.from_source(SRC)
    program = harness.Program([sys.executable, str(script)], honest.traced, honest.env)
    result = _bench("rebalance", False, tmp_path, program)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == TINY["rebalance"].batch


def test_gain_cycle_search_rejects_a_suboptimal_circulation():
    instance = {
        "nodes": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "capacity": 2, "weight": 1},
            {"from": "b", "to": "c", "capacity": 2, "weight": 1},
            {"from": "c", "to": "a", "capacity": 2, "weight": 1},
        ],
    }
    full = [{"from": e["from"], "to": e["to"], "amount": 2} for e in instance["edges"]]
    assert not wl.has_gain_cycle(instance, {"flows": full})
    assert wl.has_gain_cycle(instance, {"flows": []})
