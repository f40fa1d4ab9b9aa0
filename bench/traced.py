#!/usr/bin/env python3
"""Traced twin of ``pcnflow run`` and ``pcnflow execute``.

Usage: python bench/traced.py SPANS_JSON INVOCATION_ID <pcnflow arguments>

Makes the same sequence of public calls as the CLI command, with a span
around each layer's calls, and writes the same artifacts. Spans (name,
start, end, parent, invocation) are kept in memory and written to
SPANS_JSON at exit together with the layer counters. ``run.py`` checks
that the artifacts are byte-identical to the CLI's on the same inputs, so
this file cannot drift from the program it explains.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "invocation": self.invocation,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_adversary(path):
    from pcnflow.execution import AdversarySpec, adversary_from_json_dict

    if path is None:
        return AdversarySpec.honest()
    with open(path, encoding="utf-8") as fh:
        return adversary_from_json_dict(json.load(fh))


def _execute(tr: Tracer, args, cycles, state: dict):
    """HTLC setup and execution; returns the ledger and the execution
    artifacts as (file name, text builder) pairs."""
    from pcnflow.cli import child_seed
    from pcnflow.execution import (
        events_to_json,
        executions_to_json_dict,
        ledger_to_json_dict,
        run_execution,
        setup_cycle_htlcs,
    )

    with tr.span("execution.setup"):
        executions = [
            setup_cycle_htlcs(c, child_seed(args.seed, "cycle", i)) for i, c in enumerate(cycles)
        ]
    with tr.span("model.load"):
        adversary = _load_adversary(args.adversary)
    with tr.span("execution.run"):
        ledger, statuses = run_execution(executions, adversary)
    state.update(cycles=cycles, ledger=ledger, statuses=statuses)
    return ledger, [
        ("executions.json", lambda: _json(executions_to_json_dict(executions))),
        ("ledger.json", lambda: _json(ledger_to_json_dict(ledger))),
        ("events.json", lambda: events_to_json(ledger)),
    ]


def traced_run(tr: Tracer, args, state: dict) -> None:
    from pcnflow import mpc
    from pcnflow.cli import MAX_UNCONFIRMED_SCHEDULE
    from pcnflow.cycles import decompose, decomposition_to_json_dict
    from pcnflow.execution import PartialCycle, net_balance_delta
    from pcnflow.model import ModelError, dump_instance, load_instance
    from pcnflow.solver import (
        SolveReport,
        SolverError,
        circulation_to_json_dict,
        recover_circulation,
        reduce_to_min_cost_flow,
        solve_min_cost_flow,
    )

    if args.iter_bound is not None or args.dot:
        raise SystemExit("traced.py does not trace --iter-bound or --dot")
    with tr.span("model.load"):
        instance = load_instance(args.instance)
    os.makedirs(args.outdir, exist_ok=True)

    with tr.span("solver.reduce"):
        problem = reduce_to_min_cost_flow(instance)
    with tr.span("solver.mcf"):
        flow = solve_min_cost_flow(problem)
    with tr.span("solver.recover"):
        circ = recover_circulation(instance, problem, flow)
        report = SolveReport(circ, circ.objective(), flow.iterations, False)
    state["augmentations"] = flow.iterations

    mpc_artifacts = []
    if args.mpc:
        with tr.span("mpc.share"):
            delegates = mpc.select_delegates(instance.nodes, args.k, args.seed)
            session = mpc.MpcSession(args.k, args.seed)
            shared = session.share_instance(instance)
            schedule = args.schedule
            if schedule is None:
                schedule = mpc.default_schedule(shared.public_shape())
                if schedule > MAX_UNCONFIRMED_SCHEDULE:
                    raise ModelError(f"declared bounds imply a {schedule}-round oblivious schedule")
        with tr.span("mpc.solve"):
            shared_flows, transcript = session.private_solve(shared, schedule)
        with tr.span("mpc.reconstruct"):
            circ = session.reconstruct_circulation(shared_flows, instance)
        full = schedule >= mpc.default_schedule(shared.public_shape())
        if full and circ.objective() != report.objective:
            raise SolverError("private solve objective diverged from the plaintext optimum")
        report = SolveReport(circ, circ.objective(), schedule, not full)
        state.update(schedule=schedule, transcript=transcript)
        mpc_artifacts = [
            ("delegates.json", lambda: _json({"k": args.k, "delegates": list(delegates.delegates)})),
            ("mpc_transcript.txt", transcript.dumps),
        ]

    with tr.span("cycles.decompose"):
        dec = decompose(report.circulation)
    ledger, execution_artifacts = _execute(tr, args, dec.cycles, state)

    report_doc = {
        "objective": report.objective,
        "iterations": report.iterations,
        "terminated_early": report.terminated_early,
    }
    artifacts = [
        ("instance.json", lambda: dump_instance(instance)),
        ("circulation.json", lambda: _json(circulation_to_json_dict(report.circulation))),
        ("report.json", lambda: _json(report_doc)),
        ("decomposition.json", lambda: _json(decomposition_to_json_dict(dec))),
        *execution_artifacts,
        *mpc_artifacts,
    ]
    with tr.span("cli.artifacts"):
        for name, build in artifacts:
            _write(f"{args.outdir}/{name}", build())
    with tr.span("execution.balance"):
        for node in instance.nodes:
            if net_balance_delta(ledger, node) != 0:
                raise PartialCycle(f"balance conservation broken at {node}")


def traced_execute(tr: Tracer, args, state: dict) -> None:
    from pcnflow.cycles import CycleFlow
    from pcnflow.model import ModelError

    with tr.span("model.load"):
        with open(args.decomposition, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "cycles" not in data:
            raise ModelError("malformed decomposition document")
        cycles = [CycleFlow(tuple(raw["vertices"]), raw["weight"]) for raw in data["cycles"]]
    _, artifacts = _execute(tr, args, cycles, state)
    with tr.span("cli.artifacts"):
        os.makedirs(args.outdir, exist_ok=True)
        for name, build in artifacts:
            _write(f"{args.outdir}/{name}", build())


def counters(state: dict) -> dict[str, int]:
    """Deterministic layer counters, computed after the traced span closes."""
    cycles = state["cycles"]
    out = {
        "cycles.count": len(cycles),
        "cycles.htlcs": sum(len(c.vertices) for c in cycles),
        "cycles.max_len": max((len(c.vertices) for c in cycles), default=0),
        "execution.rounds": state["ledger"].rounds,
        "execution.events": len(state["ledger"].events),
        "execution.completed": sum(s.value == "completed" for s in state["statuses"]),
    }
    if "augmentations" in state:
        out["solver.augmentations"] = state["augmentations"]
    if "transcript" in state:
        ops = state["transcript"].ops
        out.update({
            "mpc.rounds": state["schedule"],
            "mpc.ops": len(ops),
            "mpc.ops.cmp": ops.count("cmp"),
            "mpc.ops.mul_shared": ops.count("mul shared"),
        })
    return out


def main(argv: list[str]) -> int:
    spans_path, invocation, cli_args = argv[0], argv[1], argv[2:]
    tr = Tracer(invocation)
    state: dict = {}
    try:
        with tr.span("invocation"):
            # Imports are traced too: the CLI child pays them on every run.
            with tr.span("import"):
                from pcnflow.cli import build_parser
            args = build_parser().parse_args(cli_args)
            command = {"run": traced_run, "execute": traced_execute}.get(args.command)
            if command is None:
                raise SystemExit(f"traced.py does not trace {args.command!r}")
            command(tr, args, state)
    finally:
        doc = {"spans": tr.spans, "counters": counters(state) if "ledger" in state else {}}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
