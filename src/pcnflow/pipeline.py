"""The rebalancing pipeline: solve, decompose, execute, write the artifacts.

``run_pipeline`` is the library entry point behind ``pcnflow run`` and the
scripts; ``execute_cycles`` runs the execution stages alone, behind
``pcnflow execute``. Both finish every check before the first write, so
a failed check (``SolverError``, ``PartialCycle``, or an artifact path
that ``model.check_writes`` refuses) writes nothing. Each
artifact is streamed to disk as it is rendered: a small one as a single
chunk, ``executions.json`` one cycle at a time, ``events.json`` and
``mpc_transcript.txt`` in blocks of 4096 records, so no artifact's whole
text is ever held in memory. A run without MPC deletes the MPC artifacts
of an earlier run in its outdir, and no other file.

``span(name)`` is entered around each stage, e.g. to time it: the
``solver.*`` stages of ``solve_rebalancing``, ``mpc.share``,
``mpc.solve``, ``mpc.reconstruct``, ``cycles.decompose``,
``execution.setup``, ``execution.run``, ``execution.balance`` and
``cli.artifacts`` (the writes). By default it does nothing.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import TYPE_CHECKING, Callable, ContextManager, Iterable, NamedTuple, Sequence

from .cycles import CycleFlow, Decomposition, decompose, dump_decomposition
from .execution import (
    AdversarySpec,
    CycleStatus,
    PartialCycle,
    events_json_chunks,
    executions_json_chunks,
    ledger_to_json,
    net_balance_delta,
    run_execution,
    setup_cycle_htlcs,
)
from .model import (
    MAX_UNCONFIRMED_SCHEDULE,
    ModelError,
    RebalancingInstance,
    check_writes,
    child_seed,
    dump_instance,
    write_text,
)

if TYPE_CHECKING:  # annotations only: ``execute_cycles`` needs no solver
    from .solver import SolveReport

Span = Callable[[str], ContextManager]
# Renders an artifact's text: one string or an iterable of chunks.
Render = Callable[[], str | Iterable[str]]
# Every file ``run`` can write, in writing order: the solve's four, the
# three of ``execute``, then two written only with ``k``; a run without
# ``k`` removes those two from its outdir.
EXECUTE_ARTIFACTS = ("executions.json", "ledger.json", "events.json")
MPC_ARTIFACTS = ("delegates.json", "mpc_transcript.txt")
RUN_ARTIFACTS = (
    "instance.json", "circulation.json", "report.json", "decomposition.json",
    *EXECUTE_ARTIFACTS, *MPC_ARTIFACTS,
)


class PipelineResult(NamedTuple):
    report: SolveReport
    decomposition: Decomposition
    statuses: list[CycleStatus]


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_artifacts(outdir: str, artifacts: list[tuple[str, Render]], span: Span, stale=()):
    """Write each artifact into ``outdir``, then delete its ``stale`` names."""
    paths = [f"{outdir}/{name}" for name, _ in artifacts]
    removes = [f"{outdir}/{name}" for name in stale]
    check_writes(paths, removes=removes, makes=outdir)
    with span("cli.artifacts"):
        os.makedirs(outdir, exist_ok=True)
        for path, (_, render) in zip(paths, artifacts):
            write_text(path, render())
    for path in removes:
        # No run writes a directory, so one of these names is not stale.
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.remove(path)


def _execute(
    cycles: Sequence[CycleFlow], seed: int, adversary: AdversarySpec | None, span: Span
) -> tuple[list[CycleStatus], tuple[Render, ...]]:
    """HTLC setup, execution and the balance check; returns the cycle
    statuses and the renderers of ``execute``'s three artifacts."""
    with span("execution.setup"):
        executions = [
            setup_cycle_htlcs(c, child_seed(seed, "cycle", i)) for i, c in enumerate(cycles)
        ]
    with span("execution.run"):
        ledger, statuses = run_execution(executions, adversary)
    with span("execution.balance"):
        for node in sorted(ledger.deltas):
            if net_balance_delta(ledger, node) != 0:
                raise PartialCycle(f"balance conservation broken at {node}")
    return statuses, (
        lambda: executions_json_chunks(executions),
        lambda: ledger_to_json(ledger),
        lambda: events_json_chunks(ledger),
    )


def run_pipeline(
    instance: RebalancingInstance,
    outdir: str,
    *,
    seed: int,
    iteration_bound: int | None = None,
    k: int | None = None,
    adversary: AdversarySpec | None = None,
    span: Span = contextlib.nullcontext,
) -> PipelineResult:
    """Solve, decompose and execute ``instance``, then write its artifacts.

    The solve stops after ``iteration_bound`` cycle cancellations, if set,
    or runs to the optimum. With ``k`` set, k delegates solve over shares
    for as many oblivious rounds, or the full schedule (refused above
    ``MAX_UNCONFIRMED_SCHEDULE`` before any solve), and the plaintext
    solve under the same bound must reach the same objective. Cycle i runs
    with seed ``child_seed(seed, "cycle", i)`` against ``adversary``
    (default: all honest), whose policies must name nodes of ``instance``.
    Without ``k``, the MPC artifacts an earlier run left in ``outdir`` are
    deleted after the writes; no other file is.
    """
    from .solver import SolveReport, SolverError, dump_circulation, solve_rebalancing

    known = set(instance.nodes)
    for node in adversary.policies if adversary else ():
        if node not in known:
            raise ModelError(f"adversary policy for {node!r}, which is not a node of the instance")
    mpc_renderers: tuple[Render, ...] = ()
    if k is None:
        report = solve_rebalancing(instance, iteration_bound, span=span)
    else:
        from . import mpc

        with span("mpc.share"):
            delegates = mpc.select_delegates(instance.nodes, k, seed)
            full = mpc.default_schedule(mpc.public_shape(instance))
            schedule = full if iteration_bound is None else iteration_bound
            if schedule < 0:
                raise ModelError(f"schedule must be non-negative, got {schedule}")
            if schedule > MAX_UNCONFIRMED_SCHEDULE and iteration_bound is None:
                raise ModelError(
                    f"declared bounds imply a {full}-round oblivious schedule; "
                    "tighten the instance bounds or pass --schedule explicitly"
                )
            session = mpc.MpcSession(k, seed)
            shared = session.share_instance(instance)
        with span("mpc.solve"):
            shared_flows, transcript = session.private_solve(shared, schedule)
        with span("mpc.reconstruct"):
            circ = session.reconstruct_circulation(shared_flows, instance)
        if circ.objective() != solve_rebalancing(instance, iteration_bound, span=span).objective:
            raise SolverError("private solve objective diverged from its plaintext twin")
        report = SolveReport(circ, circ.objective(), schedule, terminated_early=schedule < full)
        mpc_renderers = (lambda: _json({"k": k, "delegates": list(delegates.delegates)}), transcript.chunks)
    with span("cycles.decompose"):
        dec = decompose(report.circulation)
    statuses, execution_renderers = _execute(dec.cycles, seed, adversary, span)
    report_doc = {key: v for key, v in report._asdict().items() if key != "circulation"}
    renderers = (
        lambda: dump_instance(instance),
        lambda: dump_circulation(report.circulation),
        lambda: _json(report_doc),
        lambda: dump_decomposition(dec),
        *execution_renderers,
        *mpc_renderers,
    )
    # Without k, an earlier --mpc run's artifacts would pass for this run's.
    stale = () if mpc_renderers else MPC_ARTIFACTS
    _write_artifacts(outdir, list(zip(RUN_ARTIFACTS, renderers)), span, stale)
    return PipelineResult(report, dec, statuses)


def execute_cycles(
    cycles: Sequence[CycleFlow],
    outdir: str,
    *,
    seed: int,
    adversary: AdversarySpec | None = None,
    span: Span = contextlib.nullcontext,
) -> list[CycleStatus]:
    """Set up and run each cycle's HTLCs as ``run_pipeline`` does, then
    write executions.json, ledger.json and events.json."""
    statuses, renderers = _execute(cycles, seed, adversary, span)
    _write_artifacts(outdir, list(zip(EXECUTE_ARTIFACTS, renderers)), span)
    return statuses
