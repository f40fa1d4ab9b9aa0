"""Command-line front end: gen, run, verify, decompose, execute.

Each command maps its flags onto one library call (``run_pipeline``,
``execute_cycles``, ``verify_files``), imports the modules it uses when
it runs (``gen`` loads only this module and ``model``) and, if it
writes, checks every path it writes with ``model.check_writes`` before
it reads anything. Exit codes: 0 success, 1 malformed input or a usage
error, 2 a broken internal invariant (``model.InvariantViolation``), in
which case nothing is written.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys

from .model import (
    MAX_UNCONFIRMED_SCHEDULE,  # noqa: F401 (bench/ imports it from here)
    ChannelConstraint,
    InvariantViolation,
    ModelError,
    RebalancingInstance,
    build_instance,
    check_writes,
    child_seed,  # noqa: F401 (bench/ imports it from here)
    dump_instance,
    load_instance,
    read_json,
    write_text,
)


def generate_instance(
    n: int, m: int, cap_max: int, weight_max: int, seed: int
) -> RebalancingInstance:
    """Random instance: no self loops, duplicates or antiparallel pairs.

    Each unordered node pair can host one directed edge, so at most
    n(n-1)/2 edges fit. Declared bounds are set snugly to the requested
    maxima; keeping them tight is what keeps secret-shared solves cheap.
    """
    if n < 2 or m < 0 or m > n * (n - 1) // 2:
        raise ModelError(f"cannot place {m} edges on {n} nodes")
    if cap_max < 1 or weight_max < 0:
        raise ModelError("cap_max must be >= 1 and weight_max >= 0")
    rng = random.Random(seed)
    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]
    chosen: dict[tuple[str, str], ChannelConstraint] = {}
    low_weight = 1 if weight_max >= 1 else 0
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (names[u], names[v])
        if key in chosen or (key[1], key[0]) in chosen:
            continue
        chosen[key] = ChannelConstraint(
            key[0],
            key[1],
            rng.randint(1, cap_max),
            rng.randint(low_weight, weight_max) if weight_max else 0,
        )
    return build_instance(
        names,
        chosen.values(),
        capacity_bound=cap_max,
        weight_bound=max(1, weight_max),
    )


def _load_adversary(path: str | None):
    from .execution import adversary_from_json_dict

    return adversary_from_json_dict(read_json(path) if path else {"policies": {}})


class _MpcOption(argparse.Action):
    """Stores an option of ``run --mpc`` and notes that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.mpc_options = [*namespace.mpc_options, self.option_strings[0]]


def _run_pipeline(args) -> int:
    from .cycles import decomposition_to_dot
    from .execution import CycleStatus
    from .pipeline import MPC_ARTIFACTS, RUN_ARTIFACTS, run_pipeline, write_artifacts

    if args.mpc_options and not args.mpc:
        raise ModelError(f"{args.mpc_options[0]} applies only with --mpc")
    if args.mpc and args.iter_bound is not None:
        raise ModelError("--iter-bound applies only without --mpc; bound it with --schedule")
    # Without --mpc, an earlier --mpc run's artifacts would pass for this run's.
    stale = () if args.mpc else MPC_ARTIFACTS
    writes = [f"{args.outdir}/{n}" for n in RUN_ARTIFACTS if n not in stale]
    check_writes([*writes, args.dot], (args.instance, args.adversary),
                 removes=[f"{args.outdir}/{n}" for n in stale], makes=args.outdir)
    instance = load_instance(args.instance)
    result = run_pipeline(
        instance,
        seed=args.seed,
        iteration_bound=args.schedule if args.mpc else args.iter_bound,
        k=args.k if args.mpc else None,
        adversary=_load_adversary(args.adversary),
    )
    write_artifacts(args.outdir, result.artifacts, stale)
    if args.dot:
        write_text(args.dot, decomposition_to_dot(result.decomposition))
    completed = result.statuses.count(CycleStatus.COMPLETED)
    print(
        f"objective {result.report.objective}, {len(result.decomposition.cycles)} cycles, "
        f"{completed} completed, {len(result.statuses) - completed} aborted"
    )
    return 0


def _cmd_gen(args) -> int:
    check_writes([args.out])
    instance = generate_instance(args.nodes, args.edges, args.cap_max, args.weight_max, args.seed)
    write_text(args.out, dump_instance(instance))
    return 0


def _cmd_decompose(args) -> int:
    from .cycles import decompose, decomposition_to_dot, dump_decomposition
    from .solver import circulation_from_json_dict

    check_writes([args.out, args.dot], (args.instance, args.circulation))
    instance = load_instance(args.instance)
    circ = circulation_from_json_dict(read_json(args.circulation), instance)
    dec = decompose(circ)
    write_text(args.out, dump_decomposition(dec))
    if args.dot:
        write_text(args.dot, decomposition_to_dot(dec))
    return 0


def _cmd_execute(args) -> int:
    from .cycles import cycles_from_json_dict
    from .pipeline import EXECUTE_ARTIFACTS, execute_cycles, write_artifacts

    writes = [f"{args.outdir}/{n}" for n in EXECUTE_ARTIFACTS]
    check_writes(writes, (args.decomposition, args.adversary), makes=args.outdir)
    cycles = cycles_from_json_dict(read_json(args.decomposition))
    adversary = _load_adversary(args.adversary)
    on_cycles = {v for c in cycles for v in c.vertices}
    idle = [v for v in adversary.policies if v not in on_cycles]
    if idle:  # not an error: a policy document may cover a whole network
        names = ", ".join(map(repr, idle))
        print(f"warning: adversary policies for nodes on no cycle: {names}", file=sys.stderr)
    statuses, artifacts = execute_cycles(cycles, seed=args.seed, adversary=adversary)
    write_artifacts(args.outdir, artifacts)
    print(", ".join(s.value for s in statuses) or "no cycles")
    return 0


def _cmd_verify(args) -> int:
    if args.outdir is None and args.circulation is None:
        raise ModelError("verify needs --outdir or --circulation")
    from .verify import verify_files

    reasons = verify_files(args.instance, args.outdir, args.circulation, args.decomposition)
    print("\n".join(f"FAIL: {r}" for r in reasons) or "OK")
    return 1 if reasons else 0


def verify_artifacts(instance, circulation_doc, decomposition_doc, report_doc=None) -> list[str]:
    """``verify.verify_artifacts``, loaded when called: bench/ calls it from here."""
    from . import verify

    return verify.verify_artifacts(instance, circulation_doc, decomposition_doc, report_doc)


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 like any malformed input; 2 stays reserved."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcnflow",
        description="Optimal payment-channel rebalancing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("-n", "--nodes", type=int, required=True)
    gen.add_argument("-m", "--edges", type=int, required=True)
    gen.add_argument("--cap-max", type=int, default=5)
    gen.add_argument("--weight-max", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="solve, decompose and execute an instance")
    run.add_argument("instance")
    run.add_argument("--outdir", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--iter-bound", type=int, default=None)
    run.add_argument("--mpc", action="store_true", help="solve over secret shares")
    run.add_argument(
        "--k", type=int, default=3, action=_MpcOption, help="delegate count for --mpc"
    )
    run.add_argument(
        "--schedule", type=int, default=None, action=_MpcOption,
        help="oblivious cancel rounds for --mpc",
    )
    run.add_argument("--adversary", default=None, help="adversary policy JSON")
    run.add_argument("--dot", default=None, help="write decomposition DOT here")
    run.set_defaults(func=_run_pipeline, mpc_options=[])

    dec = sub.add_parser("decompose", help="decompose a circulation into cycles")
    dec.add_argument("instance")
    dec.add_argument("--circulation", required=True)
    dec.add_argument("-o", "--out")
    dec.add_argument("--dot", default=None)
    dec.set_defaults(func=_cmd_decompose)

    exe = sub.add_parser("execute", help="run HTLC execution for a decomposition")
    exe.add_argument("--decomposition", required=True)
    exe.add_argument("--outdir", required=True)
    exe.add_argument("--seed", type=int, default=0)
    exe.add_argument("--adversary", default=None)
    exe.set_defaults(func=_cmd_execute)

    ver = sub.add_parser("verify", help="independently re-check run artifacts")
    ver.add_argument("instance")
    ver.add_argument("--outdir", default=None)
    ver.add_argument("--circulation", default=None)
    ver.add_argument("--decomposition", default=None)
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # Nearly everything a command builds lives until it returns, so the
    # cyclic collector would only traverse live objects: it is paused for
    # the command and left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
