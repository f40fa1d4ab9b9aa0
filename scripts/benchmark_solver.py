#!/usr/bin/env python3
"""Timing smoke test: run the pipeline stages on random instances on two rungs.

Rungs are (n, m) = (100, 400) and (1000, 4000), capacities up to 2^20 and
weights up to 1, generator seed 11. Prints, for each rung, the solve time
and the augmenting paths the solver pushed, the decomposition time, the
HTLC setup plus execution time of the honest run, and the time to build
the text of the execution artifacts (executions.json, ledger.json and
events.json).

Then, for the secret-shared solve at n=4/6/8 (m=n+2, capacities up to 2,
weights up to 1, seed 11, k=3), times one oblivious round and prints its
ops, ms and ops/s.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pcnflow.cli import child_seed, generate_instance
from pcnflow.cycles import decompose, validate_decomposition
from pcnflow.execution import (
    events_to_json,
    executions_to_json,
    ledger_to_json_dict,
    run_execution,
    setup_cycle_htlcs,
)
from pcnflow.mpc import MpcSession
from pcnflow.solver import solve_rebalancing

RUNGS = [(100, 400), (1000, 4000)]
MPC_RUNGS = [4, 6, 8]


def main() -> int:
    for n, m in RUNGS:
        instance = generate_instance(n=n, m=m, cap_max=2**20, weight_max=1, seed=11)

        t0 = time.perf_counter()
        report = solve_rebalancing(instance)
        t1 = time.perf_counter()
        dec = decompose(report.circulation)
        t2 = time.perf_counter()
        executions = [
            setup_cycle_htlcs(c, child_seed(11, "cycle", i)) for i, c in enumerate(dec.cycles)
        ]
        ledger, _ = run_execution(executions)
        t3 = time.perf_counter()
        artifacts = (
            executions_to_json(executions),
            json.dumps(ledger_to_json_dict(ledger), indent=2),
            events_to_json(ledger),
        )
        t4 = time.perf_counter()

        assert validate_decomposition(dec)
        print(
            f"n={n:<5} m={m:<5} objective {report.objective:>11}  "
            f"solve {(t1 - t0) * 1000:7.1f} ms  "
            f"augmentations {report.iterations:>5}  "
            f"decompose {(t2 - t1) * 1000:6.1f} ms ({len(dec.cycles)} cycles)  "
            f"htlc setup+execute {(t3 - t2) * 1000:6.1f} ms  "
            f"artifacts {(t4 - t3) * 1000:6.1f} ms ({sum(map(len, artifacts))} chars)"
        )
    for n in MPC_RUNGS:
        instance = generate_instance(n=n, m=n + 2, cap_max=2, weight_max=1, seed=11)
        session = MpcSession(3, 11)
        shared = session.share_instance(instance)
        t0 = time.perf_counter()
        _, transcript = session.private_solve(shared, 1)
        elapsed = time.perf_counter() - t0
        print(
            f"mpc n={n:<3} m={n + 2:<3} one round: {len(transcript):>6} ops  "
            f"{elapsed * 1000:7.1f} ms  {len(transcript) / elapsed:>9,.0f} ops/s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
