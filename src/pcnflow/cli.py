"""Command-line front end: gen, run, verify, decompose, execute.

Every run is a pure function of (input files, flags, seed): randomized
choices derive from the seed, artifacts are written with fixed key order,
and repeated invocations produce byte-identical files. ``run`` and
``execute`` map their flags onto ``pipeline.run_pipeline`` and
``pipeline.execute_cycles``, which own the stage order and the artifact
set and do no I/O, then write the artifacts with
``pipeline.write_artifacts`` and print the outcome. Each command imports
the modules it uses when it runs, so ``gen`` loads no more than this
module and ``model``. ``verify`` certifies the circulation optimal at
any size (no positive-gain residual cycle) unless its report says the
solve stopped early; then it replays the bounded solve for the report's
iterations and requires its flows, with a gain cycle left. With
``--outdir`` it also checks ``instance.json``. An outdir that holds
``delegates.json`` is an ``--mpc`` run's: there it checks that file,
the flag against the full schedule, the flows against as many canceler
rounds whatever the flag says, and ``mpc_transcript.txt`` against the
engine's ops. Each
command that writes checks every path it writes once, with
``model.check_writes``, before it reads anything, so none writes over
its own input. Exit codes: 0 success, 1 malformed input or a usage
error, 2 a broken internal invariant (``model.InvariantViolation``), in
which case nothing is written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
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
    is_json_int,
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


def verify_artifacts(
    instance: RebalancingInstance,
    circulation_doc: dict,
    decomposition_doc: dict | None,
    report_doc: dict | None = None,
) -> list[str]:
    """Re-check a plain run's outputs; returns a list of reasons, empty
    when ok. The circulation must be optimal, its residual graph holding
    no positive-gain cycle, unless ``report_doc`` says the solve
    terminated early. Then the bounded canceler replayed for the report's
    iterations must give the same flows and leave a gain cycle, as the
    run's own canceler did."""
    return _artifact_reasons(instance, circulation_doc, decomposition_doc, report_doc, None)


def _artifact_reasons(
    instance: RebalancingInstance, circulation_doc: dict, decomposition_doc: dict | None,
    report_doc: dict | None, full: int | None,
) -> list[str]:
    """``verify_artifacts``, or with ``full`` the rules of an ``--mpc``
    outdir whose full schedule is ``full`` rounds: ``terminated_early``
    says the report's iterations are fewer, and whatever the flag says,
    the flows are those of as many canceler rounds, which the oblivious
    rounds mirror."""
    from .cycles import Decomposition, cycles_from_json_dict, decomposition_reasons
    from .solver import circulation_from_json_dict, find_gain_cycle, residual_network
    from .solver import solve_rebalancing

    reasons: list[str] = []
    try:
        circ = circulation_from_json_dict(circulation_doc, instance)
    except ModelError as exc:
        return [f"circulation invalid: {exc}"]

    if report_doc is not None:
        objective = circ.objective()
        reasons += _document_reasons("report.json", report_doc, {
            "objective": (lambda v: is_json_int(v) and v == objective,
                          f"the circulation's {objective}"),
            "iterations": (lambda v: is_json_int(v) and v >= 0, "a non-negative integer"),
            "terminated_early": (lambda v: isinstance(v, bool), "true or false"),
        })

    if decomposition_doc is not None:
        try:
            cycles = cycles_from_json_dict(decomposition_doc)
        except ModelError as exc:
            reasons.append(f"decomposition invalid: {exc}")
        else:
            reasons += decomposition_reasons(Decomposition(cycles, circ))

    report = report_doc or {}
    early, rounds = report.get("terminated_early"), _rounds(report)
    if early is not True:
        net = residual_network(instance, circ.flows)
        # Whether a cycle is found does not depend on the arc order.
        cycle = find_gain_cycle(net, range(2 * instance.m), instance.n)
        if cycle is not None:
            gain = -sum(net.cost[a] for a in cycle)
            route = " -> ".join(instance.nodes[net.to[a ^ 1]] for a in [*cycle, cycle[0]])
            reasons.append(f"circulation not optimal: residual cycle {route} gains {gain} per unit")
    if full is not None and rounds is not None and isinstance(early, bool) and early != (rounds < full):
        fewer = "not fewer" if early else "fewer"
        reasons.append(f"report.json: terminated_early {json.dumps(early)}, but {rounds} rounds "
                       f"are {fewer} than the full schedule's {full}")
    if (early is True or full is not None) and rounds is not None:
        replay = solve_rebalancing(instance, rounds)
        for e, got, want in zip(instance.edges, circ.flows, replay.circulation.flows):
            if got != want:
                did = "1 cancellation puts" if rounds == 1 else f"{rounds} cancellations put"
                reasons.append(
                    f"report.json: terminated_early {json.dumps(early)}, but {did} {want} on "
                    f"{e.src}->{e.dst}, not {got}"
                )
                break
        else:  # the flows are the replay's, so a cycle is left exactly when it stopped early
            if full is None and not replay.terminated_early:
                reasons.append("report.json: terminated_early true, but no positive-gain cycle remains")
    return reasons


def _rounds(report: dict) -> int | None:
    """The report's iterations, if they are a non-negative integer."""
    rounds = report.get("iterations")
    return rounds if is_json_int(rounds) and rounds >= 0 else None


def _transcript_reasons(path: str, instance: RebalancingInstance, rounds: int) -> list[str]:
    """The first way the file at ``path`` differs from the transcript of
    ``rounds`` oblivious rounds on ``instance``: the solve's fixed
    prologue, then one round's ops ``rounds`` times. The engine itself
    gives both, run for 0 and for 1 round; k and the seed do not reach
    the transcript. The file is compared a round at a time, as bytes."""
    import itertools
    import os

    from .mpc import MpcSession

    session = MpcSession(2, 0)
    shared = session.share_instance(instance)
    head = session.private_solve(shared, 0)[1].ops
    body = session.private_solve(shared, 1)[1].ops[len(head):]
    total = len(head) + rounds * len(body)
    try:
        fh = open(path, "rb", opener=lambda p, f: os.open(p, f | os.O_NONBLOCK))
    except FileNotFoundError:
        return ["mpc_transcript.txt: missing"]
    with fh:
        os.set_blocking(fh.fileno(), True)
        done = 0  # ops matched so far
        for ops, want in itertools.chain([_text(head)], itertools.repeat(_text(body), rounds)):
            got = fh.read(len(want))
            if got != want:
                # Complete the line the read stopped in; an unended last line is the final piece.
                lines = (got + fh.readline()).split(b"\n")
                i = next(i for i, op in enumerate(ops) if i + 1 == len(lines) or lines[i] != op)
                if i + 1 == len(lines) and not lines[i]:
                    return [f"mpc_transcript.txt: ends after {done + i} of {total} ops"]
                unended = " with no line end" if i + 1 == len(lines) else ""
                line = json.dumps(lines[i].decode(errors="replace"))
                return [f"mpc_transcript.txt: line {done + i + 1} is {line}{unended}, "
                        f"not {json.dumps(ops[i].decode())}"]
            done += len(ops)
        if fh.read(1):
            return [f"mpc_transcript.txt: holds more than the {total} ops of {rounds} rounds"]
    return []


def _text(ops: tuple[str, ...]) -> tuple[list[bytes], bytes]:
    """The ops as bytes, and the transcript text they make."""
    encoded = [op.encode() for op in ops]
    return encoded, b"".join(line + b"\n" for line in encoded)


def _document_reasons(name: str, doc: dict, rules: dict) -> list[str]:
    """One reason per rule of the document ``name`` that ``doc`` breaks:
    its keys are exactly those of ``rules``, and each value it has passes
    the test of its key's ``(test, description)`` rule."""
    reasons = []
    if set(doc) != set(rules):
        reasons.append(f"{name} keys {json.dumps(sorted(doc))} are not {json.dumps(list(rules))}")
    # A missing key breaks only the rule above.
    for key, (test, description) in rules.items():
        if key in doc and not test(doc[key]):
            reasons.append(f"{name} {key} {json.dumps(doc[key])} is not {description}")
    return reasons


def _delegates_reasons(doc, instance: RebalancingInstance) -> list[str]:
    """The reasons ``doc`` is not an ``--mpc`` run's ``delegates.json`` for
    ``instance``: ``{"k": K, "delegates": [...]}``, K an integer of at
    least 2 and the list K distinct nodes of the instance."""
    if not isinstance(doc, dict):
        return ["delegates.json: not a JSON object"]
    known, k = set(instance.nodes), doc.get("k")
    k = k if is_json_int(k) and k >= 2 else None  # only a valid k sets the list's length

    def distinct_nodes(v) -> bool:
        return (isinstance(v, list) and all(isinstance(d, str) and d in known for d in v)
                and len(set(v)) == len(v) == (k or len(v)))

    count = f"{k} " if k else ""
    return _document_reasons("delegates.json:", doc, {
        "k": (lambda v: is_json_int(v) and v >= 2, "an integer of at least 2"),
        "delegates": (distinct_nodes, f"a list of {count}distinct nodes of the instance"),
    })


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
    instance = load_instance(args.instance)
    circulation_doc = read_json(args.circulation or f"{args.outdir}/circulation.json")
    decomposition_doc = report_doc = full = None
    if args.decomposition:
        decomposition_doc = read_json(args.decomposition)
    elif args.outdir:
        # Of the files verify reads, only these --outdir defaults may be absent.
        with contextlib.suppress(FileNotFoundError):
            decomposition_doc = read_json(f"{args.outdir}/decomposition.json")
    reasons, mpc_reasons = [], []
    if args.outdir:
        with contextlib.suppress(FileNotFoundError):
            report_doc = read_json(f"{args.outdir}/report.json")
            if not isinstance(report_doc, dict):
                raise ModelError("report.json must be a JSON object")
        if read_json(f"{args.outdir}/instance.json") != json.loads(dump_instance(instance)):
            reasons.append("instance.json is not the instance given to verify")
        try:
            delegates_doc = read_json(f"{args.outdir}/delegates.json")
        except (FileNotFoundError, IsADirectoryError):
            pass  # only an --mpc run writes it, and a plain run leaves a directory of that name
        else:
            from .mpc import default_schedule, public_shape

            full = default_schedule(public_shape(instance))
            mpc_reasons = _delegates_reasons(delegates_doc, instance)
            if (rounds := _rounds(report_doc or {})) is not None:
                transcript = f"{args.outdir}/mpc_transcript.txt"
                mpc_reasons += _transcript_reasons(transcript, instance, rounds)
    reasons += _artifact_reasons(instance, circulation_doc, decomposition_doc, report_doc, full)
    reasons += mpc_reasons
    print("\n".join(f"FAIL: {r}" for r in reasons) or "OK")
    return 1 if reasons else 0


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
