"""Closed-loop measurement of the pcnflow CLI, with output checks.

One client: each invocation is a fresh child process, started only after
the previous one has exited, so the benchmark never uses more than one
core for the program under test. A run generates its inputs, then cycles
through them until ``seconds`` have passed, invoking each input at least
once.

With tracing on, each step is a pair: the CLI invocation, then the traced
twin (``traced.py``) on the same inputs and seed. The pair must produce
byte-identical artifacts, and the twin's spans give the per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# A run stops starting invocations BUDGET_S seconds after it began and
# kills a straggler 30 s later, so it ends well within 180 s.
BUDGET_S = 140.0

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "model.load_s": "s",
    "solver.reduce_s": "s",
    "solver.mcf_s": "s",
    "solver.recover_s": "s",
    "solver.augmentations": "count",
    "cycles.decompose_s": "s",
    "cycles.count": "count",
    "cycles.htlcs": "count",
    "cycles.max_len": "count",
    "execution.setup_s": "s",
    "execution.run_s": "s",
    "execution.rounds": "count",
    "execution.events": "count",
    "execution.completed_frac": "fraction",
    "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes",
    "mpc.share_s": "s",
    "mpc.solve_s": "s",
    "mpc.reconstruct_s": "s",
    "mpc.rounds": "count",
    "mpc.ops": "count",
    "mpc.ops.cmp": "count",
    "mpc.ops.mul_shared": "count",
    "mpc.ops_per_s": "1/s",
    "mpc.useful_round_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


@dataclass(frozen=True)
class Program:
    """Command prefixes that start the CLI and its traced twin."""

    cli: list[str]
    traced: list[str]
    env: dict[str, str]

    @classmethod
    def from_source(cls, src: Path) -> "Program":
        env = dict(os.environ, PYTHONPATH=str(src))
        return cls(
            [sys.executable, "-m", "pcnflow.cli"],
            [sys.executable, str(BENCH / "traced.py")],
            env,
        )


@dataclass(frozen=True)
class Sample:
    wall: float  # seconds from spawn to reaped exit
    cpu: float  # user + system seconds of the child
    rss_mb: float  # peak resident set of the child
    code: int
    stderr: str


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict[str, str], cwd: Path, kill_at: float) -> Sample:
    """Run one child to completion; kill it at monotonic time ``kill_at``."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    watchdog = threading.Timer(max(0.0, kill_at - time.monotonic()), _kill, (proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc.pid)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports kilobytes
        code=proc.returncode,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


class Run:
    """One benchmark run: inputs, invocations, checks and their tallies."""

    def __init__(self, workload: str, sizes: wl.Sizes, seed: int, workdir: Path,
                 program: Program, stop_at: float, kill_at: float):
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.program = program
        self.stop_at = stop_at
        self.kill_at = kill_at
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[str, tuple[dict[str, str], list[str]]] = {}
        self._counters: dict[str, dict[str, int]] = {}
        self._transcript: str | None = None

    # -- set-up --------------------------------------------------------------

    def _run_cli(self, args: list[str]) -> None:
        sample = self._spawn(self.program.cli + args)
        if sample.code != 0:
            raise RuntimeError(f"pcnflow {' '.join(args)} failed: {sample.stderr}")

    def setup(self) -> tuple[list[wl.Job], list[float]]:
        """Generate the inputs SETUP_REPEATS times; keep the last set."""
        times = []
        for r in range(SETUP_REPEATS):
            d = self.workdir / f"inputs{r}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            jobs = wl.GENERATORS[self.workload](d, self.seed, self.sizes, self._run_cli)
            times.append(time.perf_counter() - start)
        return jobs, times

    # -- checks --------------------------------------------------------------

    def _merge_counters(self, job: wl.Job, counters: dict[str, int]) -> list[str]:
        known = self._counters.setdefault(job.name, {})
        changed = [f"{k} {known[k]} -> {v}" for k, v in counters.items() if known.setdefault(k, v) != v]
        return [f"counters differ across runs on the same inputs: {', '.join(changed)}"] if changed else []

    def _check_transcript(self, job: wl.Job, outdir: Path) -> list[str]:
        if not job.mpc:
            return []
        text = (outdir / "mpc_transcript.txt").read_text(encoding="utf-8")
        if self._transcript is None:
            self._transcript = text
        return [] if text == self._transcript else ["MPC transcript differs across the batch"]

    def check(self, job: wl.Job, outdir: Path, sample: Sample) -> list[str]:
        """Reasons the invocation failed; empty when its outputs are correct.

        The first invocation of a job is checked in full. Later ones must
        reproduce its artifacts byte for byte, which makes them correct too.
        """
        if sample.code != 0:
            return [f"exit code {sample.code}: {sample.stderr.strip()[-300:]}"]
        digests = wl.artifact_digests(outdir)
        first = self._first.get(job.name)
        if first is not None:
            if digests != first[0]:
                return ["artifacts differ from an earlier invocation on the same inputs and seed"]
            return list(first[1])
        try:
            reasons = wl.check_outputs(job, outdir)
            reasons += self._check_transcript(job, outdir)
            reasons += self._merge_counters(job, wl.artifact_counters(job, outdir))
        except Exception as exc:  # a broken artifact fails this invocation only
            reasons = [f"artifacts unreadable: {exc!r}"]
        self._first[job.name] = (digests, reasons)
        return reasons

    def _record(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")

    # -- invocations -----------------------------------------------------------

    def _spawn(self, argv: list[str]) -> Sample:
        return spawn(argv, self.program.env, self.workdir, self.kill_at)

    def invoke(self, job: wl.Job, k: int) -> Sample:
        outdir = self.workdir / f"out{k}"
        sample = self._spawn(self.program.cli + job.argv(outdir))
        self._record(f"{job.name} #{k}", self.check(job, outdir, sample))
        shutil.rmtree(outdir, ignore_errors=True)
        return sample

    def traced_pair(self, job: wl.Job, k: int) -> dict[str, float] | None:
        """CLI then traced twin on the same job; per-layer values or None."""
        cli_out = self.workdir / f"out{k}"
        traced_out = self.workdir / f"traced{k}"
        spans_path = self.workdir / f"spans{k}.json"
        cli = self._spawn(self.program.cli + job.argv(cli_out))
        self._record(f"{job.name} #{k}", self.check(job, cli_out, cli))
        invocation = f"{self.workload}/{self.seed}/{job.name}/{k}"
        traced = self._spawn(self.program.traced + [str(spans_path), invocation] + job.argv(traced_out))
        values = None
        if traced.code != 0:
            reasons = [f"traced exit code {traced.code}: {traced.stderr.strip()[-300:]}"]
        elif cli.code != 0:
            reasons = ["no CLI artifacts to compare with"]
        else:
            reasons = []
            ours, theirs = wl.artifact_digests(traced_out), wl.artifact_digests(cli_out)
            if ours != theirs:
                differ = sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))
                reasons.append(f"traced artifacts differ from the CLI's: {differ}")
            with open(spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            reasons += self._merge_counters(job, doc["counters"])
            values = layer_values(doc, job, cli, traced, cli_out)
        self._record(f"{job.name} #{k} traced", reasons)
        for path in (cli_out, traced_out):
            shutil.rmtree(path, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        return values

    def counters_digest(self) -> str:
        """Digest of every invoked job's deterministic counters, equal across
        runs with the same workload, seed and tracing."""
        text = json.dumps(self._counters, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def measure(self, jobs: list[wl.Job], seconds: float, trace: bool) -> list[tuple[str, object]]:
        """Cycle through the jobs until ``seconds`` pass (each job at least
        once, one traced pair at least); stop early at ``stop_at``. Returns
        (job name, result) pairs."""
        results, durations = [], []
        start = time.monotonic()
        minimum = 1 if trace else len(jobs)
        k = 0
        while True:
            t0 = time.monotonic()
            job = jobs[k % len(jobs)]
            results.append((job.name, self.traced_pair(job, k) if trace else self.invoke(job, k)))
            durations.append(time.monotonic() - t0)
            k += 1
            now, typical = time.monotonic(), statistics.median(durations)
            if now + typical > self.stop_at:
                break
            if k >= minimum and now - start + typical > seconds:
                break
        return results


def layer_values(doc: dict, job: wl.Job, cli: Sample, traced: Sample, outdir: Path) -> dict[str, float]:
    own = self_times(doc["spans"])
    c = doc["counters"]
    cycles = c["cycles.count"]
    rounds = c.get("mpc.rounds", 0)
    ops = c.get("mpc.ops", 0)
    solve_s = own.get("mpc.solve", 0.0)
    values = {
        name: own.get(name[:-2], 0.0) for name, unit in PER_LAYER.items() if unit == "s"
    }
    values.update({name: c.get(name, 0) for name, unit in PER_LAYER.items() if unit == "count"})
    values.update({
        "execution.completed_frac": c["execution.completed"] / cycles if cycles else 1.0,
        "cli.artifact_bytes": sum(p.stat().st_size for p in outdir.iterdir()),
        "mpc.ops_per_s": ops / solve_s if solve_s else 0.0,
        "mpc.useful_round_frac": job.cancellations(rounds) / rounds if rounds else 0.0,
        "trace.overhead_frac": (traced.wall - cli.wall) / cli.wall,
    })
    # Self time per layer (the name before the first dot) for the report.
    for name, t in own.items():
        layer = "self." + name.split(".")[0]
        values[layer] = values.get(layer, 0.0) + t
    values["traced_wall_s"] = traced.wall
    return values


def _self_time_lines(pairs: list[dict[str, float]]) -> list[str]:
    if not pairs:
        return []
    wall = statistics.median(p["traced_wall_s"] for p in pairs)
    lines = [f"self time by layer, median of {len(pairs)} (traced wall time {wall:.4f} s):"]
    for key in sorted(k for k in pairs[0] if k.startswith("self.")):
        t = statistics.median(p.get(key, 0.0) for p in pairs)
        lines.append(f"  {key[5:]:<12} {t:10.4f} s  {100 * t / wall:5.1f}%")
    return lines


def fastest_per_job(results: list[tuple[str, Sample]], key) -> tuple[float, float]:
    """Mean over jobs of each job's fastest invocation by ``key``, and the
    median of ``key`` over all invocations."""
    fastest: dict[str, float] = {}
    for name, sample in results:
        fastest[name] = min(fastest.get(name, float("inf")), key(sample))
    return statistics.fmean(fastest.values()), statistics.median(key(s) for _, s in results)


def run_benchmark(workload: str, sizes: wl.Sizes, seed: int, seconds: float, trace: bool,
                  workdir: Path, program: Program) -> dict:
    """Set up, measure and summarise one run. Returns the result document
    plus ``report`` lines for people."""
    started = time.monotonic()
    run = Run(workload, sizes, seed, workdir, program,
              stop_at=started + BUDGET_S, kill_at=started + BUDGET_S + 30)
    jobs, setup_times = run.setup()
    results = run.measure(jobs, seconds, trace)

    lines = [
        f"pcnflow benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"environment: Python {platform.python_version()} ({platform.python_implementation()}), "
        f"{len(os.sched_getaffinity(0))} cores, {platform.system()} {platform.machine()}",
        f"invocations: {run.attempted} attempted, {len(run.failures)} failed, "
        f"fail_frac {len(run.failures) / run.attempted:.3f}",
        f"deterministic counters digest: {run.counters_digest()}",
    ]
    lines += [f"FAIL {f}" for f in run.failures[:20]]
    if trace:
        pairs = [r for _, r in results if r is not None]
        units = PER_LAYER
        metrics = {
            name: statistics.median(p[name] for p in pairs) if pairs else 0.0 for name in PER_LAYER
        }
        lines += _self_time_lines(pairs)
        lines.append(f"per-layer metrics, median of {len(pairs)} traced invocations:")
    else:
        units = END_TO_END
        # Interference from other tenants only ever adds time, and it comes
        # in phases of seconds, so each input's fastest invocation is the
        # steadiest estimate of the program's own cost on it. Averaging over
        # inputs lets every input count; medians are printed alongside.
        run_s, wall_median = fastest_per_job(results, lambda s: s.wall)
        cpu_s, cpu_median = fastest_per_job(results, lambda s: s.cpu)
        metrics = {
            "run_s": run_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": statistics.median(s.rss_mb for _, s in results),
            "setup_s": statistics.median(setup_times),
        }
        lines.append(
            f"per invocation over {len(results)} ({len(jobs)} inputs): "
            f"wall s median {wall_median:.4f}, max {max(s.wall for _, s in results):.4f}; "
            f"cpu s median {cpu_median:.4f}"
        )
        lines.append(
            f"end-to-end metrics (run_s, cpu_s: mean over inputs of each input's fastest "
            f"invocation; peak_rss_mb: median; setup_s: median of {len(setup_times)} set-ups):"
        )
    lines += [f"  {name:<26} {value:14.6g} {units[name]}" for name, value in metrics.items()]
    return {
        "report": lines,
        "result": {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }
