"""Inputs and output checks for the three benchmark workloads.

Every input is a pure function of the benchmark seed. Instances come from
``pcnflow gen``, the way a user makes them; the adversarial decomposition
and its adversary document are written here, since the CLI has no
generator for them. The program under test only ever sees these files.

The checks re-derive each claim from the artifacts alone. Only the
``rebalance`` optimality test relies on code of its own (a residual
gain-cycle search); ``pcnflow.cli.verify_artifacts`` and
``pcnflow.oracle`` serve as references.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from pcnflow.cli import verify_artifacts
from pcnflow.model import load_instance
from pcnflow.oracle import max_circulation_objective
from pcnflow.solver import solve_rebalancing

# A generator callback: runs ``pcnflow <args>`` to completion or raises.
RunCli = Callable[[list[str]], None]


@dataclass(frozen=True)
class Sizes:
    """Shape of one workload's inputs; ``batch`` distinct inputs per run."""

    batch: int
    nodes: int
    edges: int = 0
    cap_max: int = 1
    weight_max: int = 1
    cycles: int = 0
    max_len: int = 0
    corrupt_frac: float = 0.0


FULL_SIZES = {
    "rebalance": Sizes(batch=2, nodes=500, edges=2000, cap_max=2**20, weight_max=1),
    "settle-adversarial": Sizes(
        batch=2, nodes=1000, cap_max=2**20, cycles=1000, max_len=120, corrupt_frac=0.15
    ),
    "mpc-private": Sizes(batch=4, nodes=5, edges=9, cap_max=2, weight_max=2),
}


@dataclass
class Job:
    """One input of a workload and the CLI arguments that process it."""

    name: str
    args: list[str]  # "{outdir}" marks where the output directory goes
    instance: Path | None = None
    cycles: list[tuple[tuple[str, ...], int]] | None = None  # execute input
    withholders: frozenset[str] = frozenset()
    mpc: bool = False
    _reference: dict = field(default_factory=dict)

    def argv(self, outdir: Path) -> list[str]:
        return [str(outdir) if a == "{outdir}" else a for a in self.args]

    def optimum(self) -> int:
        """Oracle optimum; only affordable at oracle size (mpc-private)."""
        if "optimum" not in self._reference:
            self._reference["optimum"] = max_circulation_objective(load_instance(str(self.instance)))
        return self._reference["optimum"]

    def cancellations(self, schedule: int) -> int:
        """Cancellations the bounded plaintext engine makes within ``schedule``."""
        key = ("cancellations", schedule)
        if key not in self._reference:
            report = solve_rebalancing(load_instance(str(self.instance)), iteration_bound=schedule)
            self._reference[key] = report.iterations
        return self._reference[key]


def derive_seed(seed: int, *labels) -> int:
    text = "/".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _gen_instances(workload: str, d: Path, seed: int, s: Sizes, run_cli: RunCli) -> list[Path]:
    paths = []
    for i in range(s.batch):
        path = d / f"instance{i}.json"
        run_cli([
            "gen", "-n", str(s.nodes), "-m", str(s.edges),
            "--cap-max", str(s.cap_max), "--weight-max", str(s.weight_max),
            "--seed", str(derive_seed(seed, workload, i, "gen")), "-o", str(path),
        ])
        paths.append(path)
    return paths


def gen_rebalance(d: Path, seed: int, s: Sizes, run_cli: RunCli) -> list[Job]:
    return [
        Job(
            name=f"instance{i}",
            args=["run", str(path), "--outdir", "{outdir}",
                  "--seed", str(derive_seed(seed, "rebalance", i, "run"))],
            instance=path,
        )
        for i, path in enumerate(_gen_instances("rebalance", d, seed, s, run_cli))
    ]


def gen_mpc(d: Path, seed: int, s: Sizes, run_cli: RunCli) -> list[Job]:
    return [
        Job(
            name=f"instance{i}",
            args=["run", str(path), "--outdir", "{outdir}", "--mpc", "--k", "3",
                  "--seed", str(derive_seed(seed, "mpc-private", i, "run"))],
            instance=path,
            mpc=True,
        )
        for i, path in enumerate(_gen_instances("mpc-private", d, seed, s, run_cli))
    ]


def gen_settle(d: Path, seed: int, s: Sizes, run_cli: RunCli) -> list[Job]:
    """Random simple cycles with lengths uniform in 2..max_len, plus an
    adversary that gives ``corrupt_frac`` of the nodes each misbehaviour."""
    width = len(str(s.nodes - 1))
    names = [f"n{i:0{width}d}" for i in range(s.nodes)]
    corrupt = round(s.corrupt_frac * s.nodes)
    jobs = []
    for i in range(s.batch):
        rng = random.Random(derive_seed(seed, "settle-adversarial", i, "gen"))
        cycles = [
            (tuple(rng.sample(names, rng.randint(2, s.max_len))), rng.randint(1, s.cap_max))
            for _ in range(s.cycles)
        ]
        order = rng.sample(names, len(names))
        withholders = order[:corrupt]
        policies = {v: "withhold_preimage" for v in withholders}
        policies.update({v: "delay_settle_to_expiry" for v in order[corrupt:2 * corrupt]})
        dec_path = d / f"decomposition{i}.json"
        adv_path = d / f"adversary{i}.json"
        dec_doc = {"cycles": [{"vertices": list(vs), "weight": w} for vs, w in cycles]}
        dec_path.write_text(json.dumps(dec_doc) + "\n", encoding="utf-8")
        adv_path.write_text(json.dumps({"policies": policies}, sort_keys=True) + "\n", encoding="utf-8")
        jobs.append(Job(
            name=f"decomposition{i}",
            args=["execute", "--decomposition", str(dec_path), "--outdir", "{outdir}",
                  "--adversary", str(adv_path),
                  "--seed", str(derive_seed(seed, "settle-adversarial", i, "run"))],
            cycles=cycles,
            withholders=frozenset(withholders),
        ))
    return jobs


GENERATORS = {
    "rebalance": gen_rebalance,
    "settle-adversarial": gen_settle,
    "mpc-private": gen_mpc,
}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def has_gain_cycle(instance_doc: dict, circulation_doc: dict) -> bool:
    """True iff the residual graph of the circulation holds a positive-gain cycle.

    Queue-based Bellman-Ford from a virtual source on costs = -gain. A
    shortest path with n arcs can only exist when a negative-cost cycle
    does, which is exactly a flow that is not optimal.
    """
    nodes = instance_doc["nodes"]
    index = {v: i for i, v in enumerate(nodes)}
    amount = {(f["from"], f["to"]): f["amount"] for f in circulation_doc["flows"]}
    n = len(nodes)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in instance_doc["edges"]:
        u, v, w = index[e["from"]], index[e["to"]], e.get("weight", 1)
        f = amount.get((e["from"], e["to"]), 0)
        if f < e["capacity"]:
            adj[u].append((v, -w))
        if f > 0:
            adj[v].append((u, w))
    dist = [0] * n
    arcs_on_path = [0] * n
    queue = deque(range(n))
    queued = [True] * n
    while queue:
        u = queue.popleft()
        queued[u] = False
        for v, cost in adj[u]:
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                arcs_on_path[v] = arcs_on_path[u] + 1
                if arcs_on_path[v] >= n:
                    return True
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return False


def check_execution(outdir: Path, cycles, withholders: frozenset[str]) -> list[str]:
    """Executions follow the given cycles, each cycle ends all-settled or
    all-refunded, exactly the cycles with a withholding initiator abort, and
    the ledger equals the settled HTLCs and nets to zero at every node."""
    executions = _load(outdir / "executions.json")
    ledger = _load(outdir / "ledger.json")
    reasons = []
    if len(executions) != len(cycles):
        return [f"{len(executions)} executions for {len(cycles)} cycles"]
    deltas: dict[str, dict[str, int]] = {}
    aborted, must_abort = set(), set()
    for i, (ex, (vertices, weight)) in enumerate(zip(executions, cycles)):
        if tuple(ex["vertices"]) != tuple(vertices) or ex["weight"] != weight:
            reasons.append(f"execution {i} does not follow cycle {i}")
        states = {h["state"] for h in ex["htlcs"]}
        if states == {"settled"}:
            status = "completed"
        elif states == {"refunded"}:
            status = "aborted"
            aborted.add(i)
        else:
            reasons.append(f"cycle {i} ended {sorted(states)}")
            continue
        if ex["status"] != status:
            reasons.append(f"cycle {i} status {ex['status']!r}, HTLCs say {status!r}")
        if ex["initiator"] in withholders:
            must_abort.add(i)
        if status == "completed":
            for h in ex["htlcs"]:
                channel = f"{h['sender']}->{h['receiver']}"
                for node, sign in ((h["sender"], -1), (h["receiver"], 1)):
                    per = deltas.setdefault(node, {})
                    per[channel] = per.get(channel, 0) + sign * h["amount"]
    if aborted != must_abort:
        reasons.append(
            f"aborted cycles {sorted(aborted)[:5]}... differ from those with a "
            f"withholding initiator {sorted(must_abort)[:5]}..."
        )
    if deltas != ledger["deltas"]:
        reasons.append("ledger deltas differ from the settled HTLCs")
    unbalanced = [node for node, per in ledger["deltas"].items() if sum(per.values()) != 0]
    if unbalanced:
        reasons.append(f"net ledger change non-zero at {unbalanced[:5]}")
    return reasons


def check_run(job: Job, outdir: Path) -> list[str]:
    """Outputs of ``pcnflow run`` (plain or ``--mpc``) on an honest network."""
    instance_doc = _load(job.instance)
    circulation_doc = _load(outdir / "circulation.json")
    decomposition_doc = _load(outdir / "decomposition.json")
    report_doc = _load(outdir / "report.json")
    reasons = verify_artifacts(
        load_instance(str(job.instance)), circulation_doc, decomposition_doc, report_doc
    )
    if reasons:
        return reasons
    if report_doc["terminated_early"]:
        reasons.append("report says the solve terminated early")
    if job.mpc:
        if circulation_doc["objective"] != job.optimum():
            reasons.append(
                f"objective {circulation_doc['objective']} != oracle optimum {job.optimum()}"
            )
    elif has_gain_cycle(instance_doc, circulation_doc):
        reasons.append("residual graph still has a positive-gain cycle")
    cycles = [(tuple(c["vertices"]), c["weight"]) for c in decomposition_doc["cycles"]]
    return reasons + check_execution(outdir, cycles, job.withholders)


def check_outputs(job: Job, outdir: Path) -> list[str]:
    if job.cycles is not None:
        return check_execution(outdir, job.cycles, job.withholders)
    return check_run(job, outdir)


def artifact_counters(job: Job, outdir: Path) -> dict[str, int]:
    """Deterministic counters re-derived from a CLI invocation's artifacts.

    They must equal the traced run's in-memory counters for the same job.
    """
    executions = _load(outdir / "executions.json")
    counters = {
        "cycles.count": len(executions),
        "cycles.htlcs": sum(len(ex["vertices"]) for ex in executions),
        "cycles.max_len": max((len(ex["vertices"]) for ex in executions), default=0),
        "execution.rounds": _load(outdir / "ledger.json")["rounds"],
        "execution.events": len(_load(outdir / "events.json")),
        "execution.completed": sum(ex["status"] == "completed" for ex in executions),
    }
    if job.mpc:
        ops = (outdir / "mpc_transcript.txt").read_text(encoding="utf-8").splitlines()
        counters.update({
            "mpc.rounds": _load(outdir / "report.json")["iterations"],
            "mpc.ops": len(ops),
            "mpc.ops.cmp": ops.count("cmp"),
            "mpc.ops.mul_shared": ops.count("mul shared"),
        })
    elif job.instance is not None:
        counters["solver.augmentations"] = _load(outdir / "report.json")["iterations"]
    return counters


def artifact_digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }
