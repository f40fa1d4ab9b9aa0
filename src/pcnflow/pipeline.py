"""The rebalancing pipeline: solve, decompose, execute, render.

``run_pipeline`` is the library entry point behind ``pcnflow run`` and the
scripts; ``execute_cycles`` runs the execution stages alone, behind
``pcnflow execute``. Both do no I/O: they finish every check, then
return each artifact as a ``(name, renderer)`` pair, so a failed check
leaves nothing to write. ``write_artifacts`` writes the pairs into an
outdir and checks no path, which ``pcnflow`` does once per command,
before it reads anything. Each artifact is streamed to disk as it is
rendered: a small one as a single chunk, ``executions.json`` one cycle
at a time, ``events.json`` in blocks of 4096 records and
``mpc_transcript.txt`` one oblivious round at a time, so no artifact's
whole text is ever held in memory.

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
    events_json_chunks,
    executions_json_chunks,
    ledger_to_json,
    net_balance_delta,
    run_execution,
    setup_cycle_htlcs,
)
from .model import (
    InvariantViolation,
    ModelError,
    RebalancingInstance,
    child_seed,
    dump_instance,
    write_text,
)

if TYPE_CHECKING:  # annotations only: ``execute_cycles`` needs no solver
    from .solver import SolveReport

Span = Callable[[str], ContextManager]
# Renders an artifact's text: one string or an iterable of chunks.
Render = Callable[[], str | Iterable[str]]
Artifacts = list[tuple[str, Render]]
# Every file ``run`` can write, in writing order: the solve's four, the
# three of ``execute``, then two written only with ``k``.
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
    artifacts: Artifacts  # in ``RUN_ARTIFACTS`` order


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_artifacts(
    outdir: str, artifacts: Artifacts, stale=(), span: Span = contextlib.nullcontext
) -> None:
    """Make ``outdir``, write each artifact into it, then delete its ``stale`` names."""
    with span("cli.artifacts"):
        os.makedirs(outdir, exist_ok=True)
        for name, render in artifacts:
            write_text(f"{outdir}/{name}", render())
    for name in stale:
        # No run writes a directory, so one of these names is not stale.
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.remove(f"{outdir}/{name}")


def execute_cycles(
    cycles: Sequence[CycleFlow],
    *,
    seed: int,
    adversary: AdversarySpec | None = None,
    span: Span = contextlib.nullcontext,
) -> tuple[list[CycleStatus], Artifacts]:
    """HTLC setup, execution and the balance check; returns the cycle
    statuses and ``execute``'s three artifacts. Cycle i runs with seed
    ``child_seed(seed, "cycle", i)`` against ``adversary`` (default: all honest)."""
    with span("execution.setup"):
        executions = [
            setup_cycle_htlcs(c, child_seed(seed, "cycle", i)) for i, c in enumerate(cycles)
        ]
    with span("execution.run"):
        ledger, statuses = run_execution(executions, adversary)
    with span("execution.balance"):
        for node in sorted(ledger.deltas):
            if net_balance_delta(ledger, node) != 0:
                raise InvariantViolation(f"balance conservation broken at {node}")
    renderers = (
        lambda: executions_json_chunks(executions),
        lambda: ledger_to_json(ledger),
        lambda: events_json_chunks(ledger),
    )
    return statuses, list(zip(EXECUTE_ARTIFACTS, renderers))


def run_pipeline(
    instance: RebalancingInstance,
    *,
    seed: int,
    iteration_bound: int | None = None,
    k: int | None = None,
    adversary: AdversarySpec | None = None,
    span: Span = contextlib.nullcontext,
) -> PipelineResult:
    """Solve, decompose and execute ``instance``.

    The solve stops after ``iteration_bound`` cycle cancellations, if set,
    or runs to the optimum. With ``k`` set, ``mpc.private_rebalancing``
    solves instead, for ``iteration_bound`` oblivious rounds if set. The cycles
    run by ``execute_cycles``, under an ``adversary`` whose policies must
    name nodes of ``instance``. The artifacts are those of
    ``RUN_ARTIFACTS`` but, without ``k``, the ``MPC_ARTIFACTS``.
    """
    from .solver import dump_circulation, solve_rebalancing

    known = set(instance.nodes)
    for node in adversary.policies if adversary else ():
        if node not in known:
            raise ModelError(f"adversary policy for {node!r}, which is not a node of the instance")
    mpc_renderers: tuple[Render, ...] = ()
    if k is None:
        report = solve_rebalancing(instance, iteration_bound, span=span)
    else:
        from .mpc import private_rebalancing

        report, delegates, transcript = private_rebalancing(instance, k, seed, iteration_bound, span)
        mpc_renderers = (lambda: _json({"k": k, "delegates": list(delegates.delegates)}), transcript.chunks)
    with span("cycles.decompose"):
        dec = decompose(report.circulation)
    statuses, executed = execute_cycles(dec.cycles, seed=seed, adversary=adversary, span=span)
    report_doc = {key: v for key, v in report._asdict().items() if key != "circulation"}
    renderers = (
        lambda: dump_instance(instance),
        lambda: dump_circulation(report.circulation),
        lambda: _json(report_doc),
        lambda: dump_decomposition(dec),
    )
    artifacts = [*zip(RUN_ARTIFACTS, renderers), *executed, *zip(MPC_ARTIFACTS, mpc_renderers)]
    return PipelineResult(report, dec, statuses, artifacts)
