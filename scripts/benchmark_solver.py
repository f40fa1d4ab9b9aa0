#!/usr/bin/env python3
"""Timing smoke test: run the pipeline on random instances on two rungs.

Rungs are (n, m) = (100, 400) and (1000, 4000), capacities up to 2^20 and
weights up to 1, generator seed 11. Each rung is one ``run_pipeline`` call
and one ``write_artifacts`` call into a temporary directory, with a span
hook that times their stages and the cyclic garbage collector paused, as
every ``pcnflow`` command runs.
Prints, for each rung, the solve time (reduce, min-cost flow and recover)
and the augmenting paths the solver pushed, the decomposition time, the
HTLC setup plus execution time of the honest run, and the time to render
and write all artifacts of the run, with their total size.

Next, the bounded solve: ``run_pipeline(iteration_bound=5)`` at n=200,
m=800 and 3 at n=500, m=2000, in ms per gain-cycle detection (one per
cancellation, and one that ends the solve).

Then, for the secret-shared solve at n=4/6/8 (m=n+2, capacities up to 2,
weights up to 1, seed 11, k=3), runs the pipeline with a schedule of one
oblivious round and prints that round's ops, ms and ops/s; the n=6 round
runs again at k=2 and k=5, as each k has its own share kernels. Last comes
the shape of the ``mpc-private`` bench workload (n=5, m=9, capacities and
weights up to 2, k=3) with its full 36-round schedule, timed the same way
but without the CLI's start-up. Each MPC line reports the fastest of three
runs.

Last, the CLI's cold start: for ``gen -n 5 -m 9``, ``run`` on the n=100
rung, ``run`` at the ``rebalance`` bench shape (n=500, m=2000, capacities
up to 2^20, weights up to 1, seed 11), ``run --mpc --k 3 --schedule 1``
on the n=4 MPC instance, ``run --mpc --k 3 --schedule 200`` at the
``mpc-private`` shape (seed 11), whose peak RSS shows whether the solve's
memory grows with the schedule, and ``run --mpc`` at the ``rebalance`` shape
(refused from its public shape, exit 1), the median wall time and peak
RSS of three fresh ``python -m pcnflow.cli`` processes. They run with
PYTHONDONTWRITEBYTECODE=1, so each compiles the package modules it
imports, as every command does where no bytecode is cached. A child's
peak RSS (``ru_maxrss``) starts from the resident size of the process
that spawned it, so the children are spawned by a small launcher process
that starts before this script imports ``pcnflow``.
"""

import collections
import contextlib
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Reads one JSON argv per line, runs it with its output discarded and answers
# [wall seconds, wait status, peak RSS in KiB] from ``os.wait4``.
LAUNCHER = """
import json, os, sys, time
devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
for line in sys.stdin:
    argv = json.loads(line)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    print(json.dumps([time.perf_counter() - t0, status, usage.ru_maxrss]), flush=True)
"""

RUNGS = [(100, 400), (1000, 4000)]
# n, m, weight bound, schedule, k; mpc-private's schedule is m * cap bound * weight bound
MPC_RUNGS = [
    *((n, n + 2, 1, 1, 3) for n in (4, 6, 8)),
    (6, 8, 1, 1, 2),
    (6, 8, 1, 1, 5),
    (5, 9, 2, 36, 3),
]
MPC_REPEATS = 3  # a one-round solve takes 10-100 ms; its fastest run is the stable figure
COLD_REPEATS = 3


def run(instance, **options):
    """Run the pipeline and write its artifacts into a scratch directory
    with the cyclic collector paused. Returns the result, the ms spent in each stage, the bytes
    written and the ops in the MPC transcript (0 without one)."""
    from pcnflow.pipeline import run_pipeline, write_artifacts

    ms = collections.Counter()

    @contextlib.contextmanager
    def span(name):
        t0 = time.perf_counter()
        yield
        ms[name] += (time.perf_counter() - t0) * 1000

    with tempfile.TemporaryDirectory() as outdir:
        gc.disable()
        try:
            result = run_pipeline(instance, seed=11, span=span, **options)
            write_artifacts(outdir, result.artifacts, span=span)
        finally:
            gc.enable()
        size = sum(p.stat().st_size for p in pathlib.Path(outdir).iterdir())
        transcript = pathlib.Path(outdir, "mpc_transcript.txt")
        ops = transcript.read_text().count("\n") if transcript.exists() else 0
    return result, ms, size, ops


def start_launcher() -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, "-c", LAUNCHER], env=env, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    )


def cold_start(launcher: subprocess.Popen, args: list[str], code: int) -> tuple[float, float]:
    """Median wall ms and peak RSS in MiB of ``COLD_REPEATS`` fresh
    ``pcnflow`` processes, each of which must exit with ``code``."""
    times, peaks = [], []
    for _ in range(COLD_REPEATS):
        launcher.stdin.write(json.dumps([sys.executable, "-m", "pcnflow.cli", *args]) + "\n")
        launcher.stdin.flush()
        seconds, status, peak_kib = json.loads(launcher.stdout.readline())
        if os.waitstatus_to_exitcode(status) != code:
            raise RuntimeError(f"pcnflow {' '.join(args)} ended with wait status {status}")
        times.append(seconds * 1000)
        peaks.append(peak_kib / 1024)
    return statistics.median(times), statistics.median(peaks)


def main() -> int:
    launcher = start_launcher()
    try:
        return measure(launcher)
    finally:
        launcher.stdin.close()
        launcher.wait()


def measure(launcher: subprocess.Popen) -> int:
    sys.path.insert(0, str(SRC))
    from pcnflow.cli import generate_instance
    from pcnflow.cycles import decomposition_reasons
    from pcnflow.model import dump_instance

    for n, m in RUNGS:
        instance = generate_instance(n=n, m=m, cap_max=2**20, weight_max=1, seed=11)
        result, ms, size, _ = run(instance)
        assert not decomposition_reasons(result.decomposition)
        print(
            f"n={n:<5} m={m:<5} objective {result.report.objective:>11}  "
            f"solve {ms['solver.reduce'] + ms['solver.mcf'] + ms['solver.recover']:7.1f} ms  "
            f"augmentations {result.report.iterations:>5}  "
            f"decompose {ms['cycles.decompose']:6.1f} ms "
            f"({len(result.decomposition.cycles)} cycles)  "
            f"htlc setup+execute {ms['execution.setup'] + ms['execution.run']:6.1f} ms  "
            f"artifacts {ms['cli.artifacts']:6.1f} ms ({size} bytes)"
        )
    for n, m, bound in ((200, 800, 5), (500, 2000, 3)):
        instance = generate_instance(n=n, m=m, cap_max=2**20, weight_max=1, seed=11)
        result, ms, _, _ = run(instance, iteration_bound=bound)
        cancels = result.report.iterations  # and one more detection, which ends the solve
        print(f"n={n:<5} m={m:<5} iteration bound {bound}  {cancels} cancellations  "
              f"{ms['solver.cancel'] / (cancels + 1):6.1f} ms per detection")
    for n, m, weight_max, schedule, k in MPC_RUNGS:
        instance = generate_instance(n=n, m=m, cap_max=2, weight_max=weight_max, seed=11)
        runs = [run(instance, k=k, iteration_bound=schedule) for _ in range(MPC_REPEATS)]
        ops = runs[0][3]
        best = min(ms["mpc.solve"] for _, ms, _, _ in runs)
        print(
            f"mpc n={n:<3} m={m:<3} k={k} {schedule:>2} round(s): {ops:>6} ops  "
            f"{best:7.1f} ms  {ops / best * 1000:>9,.0f} ops/s"
        )
    with tempfile.TemporaryDirectory() as d:
        rung, rebalance, mpc, private = (
            pathlib.Path(d, f"{name}.json") for name in ("n100", "n500", "n4", "n5")
        )
        rung.write_text(dump_instance(generate_instance(100, 400, cap_max=2**20, weight_max=1, seed=11)))
        rebalance.write_text(
            dump_instance(generate_instance(500, 2000, cap_max=2**20, weight_max=1, seed=11))
        )
        mpc.write_text(dump_instance(generate_instance(4, 6, cap_max=2, weight_max=1, seed=11)))
        private.write_text(dump_instance(generate_instance(5, 9, cap_max=2, weight_max=2, seed=11)))
        commands = {  # label: argv, exit code
            "gen -n 5 -m 9": (["gen", "-n", "5", "-m", "9"], 0),
            "run n=100": (["run", str(rung), "--outdir", f"{d}/run"], 0),
            "run n=500 m=2000": (["run", str(rebalance), "--outdir", f"{d}/rebalance"], 0),
            "run --mpc --k 3 --schedule 1 n=4": ([
                "run", str(mpc), "--outdir", f"{d}/mpc", "--mpc", "--k", "3", "--schedule", "1",
            ], 0),
            "run --mpc --k 3 --schedule 200 n=5": ([
                "run", str(private), "--outdir", f"{d}/private", "--mpc", "--k", "3",
                "--schedule", "200",
            ], 0),
            "refused run --mpc n=500": (["run", str(rebalance), "--outdir", f"{d}/no", "--mpc"], 1),
        }
        for label, (args, code) in commands.items():
            ms, peak = cold_start(launcher, args, code)
            print(f"cold start {label:<34} {ms:7.1f} ms  peak RSS {peak:6.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
