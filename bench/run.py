#!/usr/bin/env python3
"""pcnflow benchmark: CLI run time on three workloads, plus a traced run.

Run from the root of a pcnflow checkout:

    python3 bench/run.py --workload rebalance --seed 1 --seconds 55 --trace 0

Workloads are ``rebalance``, ``settle-adversarial`` and ``mpc-private``
(see bench/README.md). ``--trace 0`` reports the end-to-end metrics of
plain CLI invocations; ``--trace 1`` reports per-layer metrics from the
traced twin. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("rebalance", "settle-adversarial", "mpc-private")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcnflow" / "cli.py").is_file():
        print(f"error: no pcnflow sources under {SRC}; run from a pcnflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import pcnflow

    if not Path(pcnflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pcnflow from {pcnflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".bench_work"
    workdir = scratch / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        out = harness.run_benchmark(
            args.workload,
            harness.wl.FULL_SIZES[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            harness.Program.from_source(SRC),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
