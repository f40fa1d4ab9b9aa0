#!/usr/bin/env python3
"""Reproduce the cancelling-out effect on the bundled scenario.

A single cycle through the depleted charlie->alice channel moves at most
6 coins; letting both cycles run and cancel out on the shared channel
moves 10. Prints both answers and the full pipeline outcome.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pcnflow.model import load_instance
from pcnflow.oracle import best_single_cycle
from pcnflow.pipeline import run_pipeline

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    instance = load_instance(str(ROOT / "scenarios" / "cancelling_out.json"))
    expected = json.loads((ROOT / "scenarios" / "cancelling_out.expected.json").read_text())

    result = run_pipeline(instance, seed=0)
    report = result.report
    single_obj, single_cycle, single_amount = best_single_cycle(instance)
    focal = (expected["focal_edge"]["from"], expected["focal_edge"]["to"])
    flows = {(e.src, e.dst): f for e, f in zip(instance.edges, report.circulation.flows)}

    print(f"global optimum objective : {report.objective}")
    print(f"best single cycle        : {single_obj} via {single_cycle} x{single_amount}")
    print(f"flow on {focal[0]}->{focal[1]} : {flows[focal]} "
          f"(single cycle: {single_amount})")

    print(f"cycles executed          : {[s.value for s in result.statuses]}")

    ok = (
        report.objective == expected["global_objective"]
        and single_obj == expected["best_single_cycle_objective"]
        and flows[focal] == expected["global_focal_flow"]
    )
    print("matches documented values" if ok else "MISMATCH against documented values")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
