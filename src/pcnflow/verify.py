"""``pcnflow verify``: every rule an outdir is held to.

``verify`` certifies the circulation optimal at any size (no
positive-gain residual cycle) unless its report says the solve stopped
early; then it replays the bounded solve for the report's iterations and
requires its flows, with a gain cycle left. With ``--outdir`` it also
checks ``instance.json``. An outdir that holds ``delegates.json`` is an
``--mpc`` run's: there it checks that file, the flag against the full
schedule, the flows against as many canceler rounds whatever the flag
says, and ``mpc_transcript.txt`` against the engine's ops. Only the
``verify`` command loads this module.
"""

from __future__ import annotations

import json

from .cycles import Decomposition, cycles_from_json_dict, decomposition_reasons
from .model import ModelError, RebalancingInstance, dump_instance, is_json_int, load_instance
from .model import open_input, read_json
from .solver import circulation_from_json_dict, find_gain_cycle, residual_network, solve_rebalancing

# The files ``verify`` reads, in reading order and keyed by their names in
# ``pipeline.RUN_ARTIFACTS``, each with the kinds of outdir that may lack
# it. An outdir is "mpc" when it holds ``delegates.json``, else "plain".
# No run writes a directory, so a directory under one of these names counts
# as missing. A missing file that no kind may lack is an input error (exit
# 1); one that only the other kind may lack fails with "<name>: missing".
# ``mpc_transcript.txt`` is read from an "mpc" outdir only.
READS = {
    "circulation.json": (),
    "decomposition.json": ("plain", "mpc"),
    "report.json": ("plain",),
    "instance.json": (),
    "delegates.json": ("plain",),
    "mpc_transcript.txt": ("plain",),
}


def verify_files(instance_path: str, outdir: str | None, circulation: str | None = None,
                 decomposition: str | None = None) -> list[str]:
    """The reasons ``pcnflow verify`` fails, empty when it passes; a file
    named by ``circulation`` or ``decomposition`` must exist."""
    missing: list[str] = []

    def read(name: str, path: str | None = None, parse=read_json):
        try:
            return parse(path or f"{outdir}/{name}")
        except (FileNotFoundError, IsADirectoryError):
            if path or not READS[name]:
                raise
            missing.append(name)
            return None

    instance = load_instance(instance_path)
    circulation_doc = read("circulation.json", circulation)
    decomposition_doc = read("decomposition.json", decomposition) if decomposition or outdir else None
    if decomposition_doc is None and (decomposition or outdir) and "decomposition.json" not in missing:
        decomposition_doc = []  # a file of JSON null: malformed, where None means no file
    if outdir is None:
        return verify_artifacts(instance, circulation_doc, decomposition_doc)
    report_doc = read("report.json")
    if not isinstance(report_doc, dict) and "report.json" not in missing:
        raise ModelError("report.json must be a JSON object")
    reasons, mpc_reasons, full = [], [], None
    if read("instance.json") != json.loads(dump_instance(instance)):
        reasons.append("instance.json is not the instance given to verify")
    delegates_doc = read("delegates.json")
    kind = "plain" if "delegates.json" in missing else "mpc"
    if kind == "mpc":
        from .mpc import default_schedule, public_shape

        full = default_schedule(public_shape(instance))
        mpc_reasons = _delegates_reasons(delegates_doc, instance)
        if (rounds := _rounds(report_doc or {})) is not None:
            mpc_reasons += read("mpc_transcript.txt",
                                parse=lambda p: _transcript_reasons(p, instance, rounds)) or []
    reasons += verify_artifacts(instance, circulation_doc, decomposition_doc, report_doc, full=full)
    return reasons + mpc_reasons + [f"{n}: missing" for n in missing if kind not in READS[n]]


def verify_artifacts(
    instance: RebalancingInstance, circulation_doc: dict, decomposition_doc: dict | None,
    report_doc: dict | None = None, *, full: int | None = None,
) -> list[str]:
    """The reasons a run's circulation, decomposition and report break the
    rules above, empty when they keep them. ``full`` is the full schedule
    of an ``--mpc`` outdir, whose flag says the report's iterations are fewer."""
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
    ``rounds`` oblivious rounds on ``instance``: the ``Transcript`` of
    ``mpc.prologue_and_round``'s prologue and round. The file is compared
    a piece at a time, as bytes."""
    from .mpc import Transcript, prologue_and_round

    transcript = Transcript(*prologue_and_round(instance), rounds)
    total = len(transcript.prologue) + rounds * len(transcript.body)
    with open_input(path) as fh:
        done = 0  # ops matched so far
        for ops, text in transcript.pieces():
            want = text.encode()
            got = fh.read(len(want))
            if got != want:
                # Complete the line the read stopped in; an unended last line is the final piece.
                lines = (got + fh.readline()).decode(errors="replace").split("\n")
                i = next(i for i, op in enumerate(ops) if i + 1 == len(lines) or lines[i] != op)
                if i + 1 == len(lines) and not lines[i]:
                    return [f"mpc_transcript.txt: ends after {done + i} of {total} ops"]
                unended = " with no line end" if i + 1 == len(lines) else ""
                return [f"mpc_transcript.txt: line {done + i + 1} is {json.dumps(lines[i])}"
                        f"{unended}, not {json.dumps(ops[i])}"]
            done += len(ops)
        if fh.read(1):
            return [f"mpc_transcript.txt: holds more than the {total} ops of {rounds} rounds"]
    return []


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
