"""Delegate sortition, a simulated secret-shared solve, and ``run --mpc``'s whole step.

This is a simulation of multi-party computation, not a cryptographic
implementation: shares are real additive shares over a fixed prime field,
but all k delegates live in one process and an honest dealer hands out
multiplication triples and comparison results. What the simulation does
guarantee, and what the tests pin down, are the two observable surrogates
of the privacy story:

* any k-1 shares of a value are distributed independently of the value;
* the operation transcript is a pure function of the public shape
  (participant count, edge count, declared bounds, iteration schedule),
  never of capacities or weights.

A shared value is a list of k field elements everywhere, in the engine
and in its API (``Shares``): delegate i holds element i. The generated
``split`` kernel is the one routine that splits a value, an input or a
comparison bit alike. Every comparison is opened one way, by the sum of
its operands' shares mod PRIME, and ``reconstruct`` opens only the
solve's output. Seeds are ints; the dealer's seed is
``child_seed(seed, "dealer")``, derived like every other seeded choice
in the pipeline.

The dealer draws every field element by the rule of ``_field_elements``,
which yields exactly the stream of ``random.Random.randrange(PRIME)``.
Draws are taken in operation order: an input or a comparison bit takes
the k-1 random shares of its sharing; a multiplication takes 3k-1, the
Beaver triple's a and b, then the k-1 random shares of a, of b and of
ab. A fused helper takes the draws of every op it stands for in one
batch, a relax step its bit's and three triples' k-1 + 3(3k-1). Cutting
the stream into other batches changes nothing: the rule drops each draw
equal to PRIME and tops the batch up at its end, so what is accepted is
the raw stream without PRIME, in order, and the raw draw count is the
same. So the share values are a pure function of the session seed, and
the fused helpers do not change them.

The share arithmetic runs in kernels generated for each k, the first time
an engine with that k is built (``_share_kernels``): straight-line code
with the operand and triple shares in locals and the k-1 drawn shares
written out, so a product costs no slicing, zipping or summing loops.

The private solve works on a complete-digraph matrix of shared capacities
and weights, so even the topology stays inside the sharing. It repeatedly
cancels gain cycles found by an oblivious Bellman-Ford whose control flow
is fixed: comparisons yield shared bits, shared bits drive arithmetic
selection, and rounds past convergence push zero. Every intermediate flow
matrix is a feasible circulation, so exhausting the schedule early simply
yields the best rebalancing found so far. The worst-case schedule needed
for exactness is edges * capacity_bound * weight_bound (one unit of
objective per productive round), which is the price of obliviousness.

Its transcript is a fixed prologue, then the same round of ops once per
round, and that is how ``Transcript`` holds it. Every run checks each of
its rounds against the first as it ends, and refuses a round that logged
other ops, so the engine's log never holds more than one round.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import random
from itertools import repeat
from typing import Callable, ContextManager, Iterator, NamedTuple

from .model import MAX_UNCONFIRMED_SCHEDULE, InvariantViolation, ModelError
from .model import NodeId, RebalancingInstance, child_seed
from .solver import Circulation, SolveReport, checked_output, lockstep_arcs, solve_rebalancing

PRIME = (1 << 61) - 1  # Mersenne prime; fits intermediate objectives with room
_HALF = (PRIME - 1) // 2
_BITS = PRIME.bit_length()


Shares = list[int]  # one secret-shared value: delegate i holds element i


def _field_elements(rng: random.Random, count: int) -> list[int]:
    """Draw ``count`` uniform field elements: the dealer's one drawing rule.

    Each element is ``rng.getrandbits(61)``, and a draw equal to PRIME (the
    only 61-bit value outside the field) is dropped and drawn again. That
    is exactly the stream ``rng.randrange(PRIME)`` yields, draw for draw,
    without its two Python frames around every ``getrandbits`` call.
    """
    out = list(map(rng.getrandbits, repeat(_BITS, count)))
    # each draw is PRIME with probability 2**-61
    return _refilled(rng, out) if PRIME in out else out


def _refilled(rng: random.Random, draws: list[int]) -> list[int]:
    """``draws`` without its PRIME entries, topped up by ``_field_elements``.

    Whatever the batch size, what comes out is the next len(draws) values
    of the 61-bit stream that are not PRIME, taking the same raw draws.
    """
    kept = [x for x in draws if x != PRIME]
    return kept + _field_elements(rng, len(draws) - len(kept))


def reconstruct(values: list[int]) -> int:
    """Sum shares mod PRIME and map to the centered representative: how
    the solve's output is opened."""
    total = sum(values) % PRIME
    return total - PRIME if total > _HALF else total


# ---------------------------------------------------------------------------
# Sortition
# ---------------------------------------------------------------------------


class DelegateSet(NamedTuple):
    delegates: tuple[NodeId, ...]


def sortition_digest(seed: int, node: NodeId) -> bytes:
    return hashlib.sha256(f"{seed}|{node}".encode()).digest()


def select_delegates(participants, k: int, seed: int) -> DelegateSet:
    """Pick the k participants whose seeded digests are smallest."""
    pool = sorted(set(participants))
    if k < 2:
        raise ModelError("need at least two delegates")
    if k > len(pool):
        raise ModelError(f"k={k} exceeds {len(pool)} participants")
    ranked = sorted(pool, key=lambda v: (sortition_digest(seed, v), v))
    return DelegateSet(delegates=tuple(ranked[:k]))


# ---------------------------------------------------------------------------
# Arithmetic black box
# ---------------------------------------------------------------------------


class Transcript(NamedTuple):
    """Public trace of primitive operations, shapes only: the ``prologue``,
    then ``body``, one round's ops, ``rounds`` times. Each op is named as
    in ``ArithmeticBlackBox.OPS``."""

    prologue: tuple[str, ...]
    body: tuple[str, ...]
    rounds: int

    @property
    def ops(self) -> tuple[str, ...]:
        """Every op in order, built on each read."""
        return self.prologue + self.body * self.rounds

    def pieces(self) -> Iterator[tuple[tuple[str, ...], str]]:
        """The prologue, then the body once per round, each with its text
        in ``mpc_transcript.txt``: one op per line, every line ended."""
        prologue, body = ("".join(f"{op}\n" for op in ops) for ops in (self.prologue, self.body))
        yield self.prologue, prologue
        yield from repeat((self.body, body), self.rounds)

    def chunks(self) -> Iterator[str]:
        """Text of ``mpc_transcript.txt``: the prologue's, then the round's
        once per round."""
        return (text for _, text in self.pieces() if text)

    def dumps(self) -> str:
        return "".join(self.chunks())


def _names(stem: str, count: int) -> list[str]:
    return [f"{stem}{i}" for i in range(count)]


def _triple(t: int, k: int) -> list[str]:
    """Locals for Beaver triple t in batch order: a, b, then the k-1 drawn
    shares of a, of b and of ab."""
    return [
        f"a{t}", f"b{t}",
        *_names(f"a{t}_", k - 1), *_names(f"b{t}_", k - 1), *_names(f"c{t}_", k - 1),
    ]


def _draw(targets: list[str]) -> list[str]:
    """Take one batch of field elements into ``targets``, by the rule of
    ``_field_elements``."""
    return [
        f"r = list(map(rng.getrandbits, ({_BITS},) * {len(targets)}))",
        "if PRIME in r:",
        "    r = _refilled(rng, r)",
        f"{', '.join(targets)}, = r",
    ]


def _product(
    t: int, x: str, y: str, acc: list[str], total: str, sign: str = "+"
) -> list[str]:
    """Set w{t}_0 .. w{t}_{k-1} to shares of total + x*y (or, with sign
    "-", total - x*y), by triple t.

    x and y are locals; ``acc`` holds the k accumulator share terms and
    ``total`` their sum, each a sum of locals. The delegates open d = x - a
    and e = y - b (any representative mod PRIME gives the same shares);
    share i < k-1 of x*y is c_i + d*b_i + e*a_i, plus d*e on share 0. The
    closing shares of a, b and ab are never built: all k sum to (a+d)(b+e)
    = x*y, so the last share is total ± x*y minus the others, the very
    residue the closing shares would give.
    """
    k = len(acc)
    lines = [f"d = {x} - a{t}", f"e = {y} - b{t}"]
    for i in range(k - 1):
        b_i = f"(e + b{t}_{i})" if i == 0 else f"b{t}_{i}"  # d*e + d*b_0 = d*(e + b_0)
        lines.append(
            f"w{t}_{i} = ({acc[i]} {sign} c{t}_{i} {sign} d * {b_i} {sign} e * a{t}_{i}) % PRIME"
        )
    others = "".join(f" - w{t}_{i}" for i in range(k - 1))
    lines.append(f"w{t}_{k - 1} = ({total} {sign} {x} * {y}{others}) % PRIME")
    return lines


def _unpack(stem: str, operand: str, k: int) -> list[str]:
    """Unpack an operand's k shares and set ``{stem}_sum`` to their sum."""
    names = _names(stem, k)
    return [f"{', '.join(names)}, = {operand}", f"{stem}_sum = {' + '.join(names)}"]


@functools.cache
def _share_kernels(k: int) -> tuple[Callable, ...]:
    """The share kernels for k delegates, as straight-line code.

    ``beaver(rng, x, y, acc)`` gives shares of sum(acc) + x*y from one
    triple, x and y being share sums, and ``either(rng, x, y)`` shares of
    x + y - x*y for share lists x and y, the negated shares the Beaver
    product with acc = -(x + y) gives. ``split(rng, x)`` shares x as k-1
    drawn field elements, then x minus their sum mod PRIME.
    ``relax(rng, old, base, step, p, yp, q, yq)`` gives the bit
    [old > base + step] and, by three triples, shares of base + step, p
    and q where the bit is set and of old, yp and yq where it is not,
    taking the bit's draws and the triples' in one batch.
    Operands are share lists, p and q public ints, and every kernel
    returns share lists. A rejected draw anywhere in a batch leaves the
    values what separate batches would give, since ``_refilled`` keeps
    the stream.
    """
    bit = _names("s", k - 1)
    minus_drawn = "".join(f" - {s}" for s in bit)
    sources = {
        "beaver": [
            "def beaver(rng, x, y, acc):",
            *_draw(_triple(0, k)),
            *_unpack("z", "acc", k),
            *_product(0, "x", "y", _names("z", k), "z_sum"),
            f"return [{', '.join(_names('w0_', k))}]",
        ],
        "either": [
            "def either(rng, x, y):",
            *_draw(_triple(0, k)),
            *_unpack("m", "x", k),
            *_unpack("n", "y", k),
            *_product(
                0, "m_sum", "n_sum", [f"m{i} + n{i}" for i in range(k)], "m_sum + n_sum", "-"
            ),
            f"return [{', '.join(_names('w0_', k))}]",
        ],
        "split": [
            "def split(rng, x):",
            *_draw(bit),
            f"return [{', '.join(bit)}, (x{minus_drawn}) % PRIME]",
        ],
        "relax": [
            "def relax(rng, old, base, step, p, yp, q, yq):",
            *_draw(bit + _triple(0, k) + _triple(1, k) + _triple(2, k)),
            *_unpack("o", "old", k),
            *_unpack("g", "base", k),
            *_unpack("h", "step", k),
            "gap = o_sum - g_sum - h_sum",
            "bit = 1 if 0 < gap % PRIME <= HALF else 0",
            "lower = -gap",
            *_product(0, "bit", "lower", _names("o", k), "o_sum"),
            *_unpack("u", "yp", k),
            "pu = p - u_sum",
            *_product(1, "bit", "pu", _names("u", k), "u_sum"),
            *_unpack("v", "yq", k),
            "qv = q - v_sum",
            *_product(2, "bit", "qv", _names("v", k), "v_sum"),
            f"return ([{', '.join(bit)}, (bit{minus_drawn}) % PRIME], "
            + ", ".join(f"[{', '.join(_names(f'w{t}_', k))}]" for t in range(3))
            + ")",
        ],
    }
    namespace = {"PRIME": PRIME, "HALF": _HALF, "_refilled": _refilled}
    for header, *body in sources.values():
        exec("\n    ".join([header, *body]), namespace)
    return tuple(namespace[name] for name in sources)


class ArithmeticBlackBox:
    """k-party additive-sharing engine with an honest dealer.

    All delegates run in-process; the dealer supplies Beaver triples for
    multiplication and fresh sharings of comparison bits. Every value in
    and out is a ``Shares`` list.

    The derived helpers are fused: each logs the ops and takes the draws
    of the primitives it stands for, in order, but builds no intermediate
    value, as a Beaver product or a comparison needs only share sums. The
    share arithmetic runs in the kernels ``_share_kernels`` builds for
    this engine's k.
    """

    # What each method logs to ``ops``, the transcript: one op for each
    # primitive, and for each helper the entries of the primitives it
    # stands for, in the order its unfused form (tests/shadow.py's
    # composed_*) calls them. Each method binds its entry as its ``_ops``
    # default when the class is built, so logging costs no lookup.
    OPS = {"add": ("add",), "smul": ("mul public",), "mul": ("mul shared",), "gt0": ("cmp",)}
    OPS.update(sub=OPS["add"], eq0=OPS["gt0"])
    OPS.update(
        select=OPS["sub"] + OPS["mul"] + OPS["add"],
        mul_add=OPS["mul"] + OPS["add"],
        either=OPS["mul"] + OPS["add"] + OPS["sub"],
        gt=OPS["sub"] + OPS["gt0"],
        eq_const=OPS["sub"] + OPS["eq0"],
    )
    OPS["relax"] = OPS["add"] + OPS["gt"] + OPS["select"] * 3

    def __init__(self, k: int, rng_seed: int):
        if k < 2:
            raise ModelError("need at least two delegates")
        self.k = k
        self.rng = random.Random(rng_seed)
        self.ops: list[str] = []
        self._zeros = [0] * k
        self._consts: dict[int, Shares] = {}
        self._beaver, self._either, self._split, self._relax = _share_kernels(k)

    def const(self, x: int) -> Shares:
        cached = self._consts.get(x)
        if cached is None:
            cached = self._consts[x] = [x % PRIME] + [0] * (self.k - 1)
        return cached

    def input(self, x: int) -> Shares:
        if abs(x) > _HALF:
            raise ModelError(f"{x} cannot be represented without wraparound")
        return self._split(self.rng, x)

    # -- logged primitives ---------------------------------------------------

    def add(self, a: Shares, b: Shares, _ops=OPS["add"]) -> Shares:
        self.ops += _ops
        return [(x + y) % PRIME for x, y in zip(a, b)]

    def sub(self, a: Shares, b: Shares, _ops=OPS["sub"]) -> Shares:
        self.ops += _ops
        return [(x - y) % PRIME for x, y in zip(a, b)]

    def smul(self, c: int, a: Shares, _ops=OPS["smul"]) -> Shares:
        """Multiply by a public scalar (local operation at each delegate)."""
        self.ops += _ops
        return [(c * x) % PRIME for x in a]

    def mul(self, a: Shares, b: Shares, _ops=OPS["mul"]) -> Shares:
        """Beaver-triple multiplication; the dealer supplies (a, b, ab)."""
        self.ops += _ops
        return self._beaver(self.rng, sum(a), sum(b), self._zeros)

    def gt0(self, a: Shares, _ops=OPS["gt0"]) -> Shares:
        """Shared bit [a >= 1]; the comparison itself is a dealer service."""
        self.ops += _ops
        return self._split(self.rng, 0 < sum(a) % PRIME <= _HALF)

    def eq0(self, a: Shares, _ops=OPS["eq0"]) -> Shares:
        """Shared bit [a == 0]."""
        self.ops += _ops
        return self._split(self.rng, sum(a) % PRIME == 0)

    # -- fused derived helpers -------------------------------------------------

    def select(self, bit: Shares, x: Shares, y: Shares, _ops=OPS["select"]) -> Shares:
        """y + bit * (x - y): oblivious choice driven by a shared bit."""
        self.ops += _ops
        return self._beaver(self.rng, sum(bit), sum(x) - sum(y), y)

    def mul_add(self, acc: Shares, x: Shares, y: Shares, _ops=OPS["mul_add"]) -> Shares:
        """acc + x * y."""
        self.ops += _ops
        return self._beaver(self.rng, sum(x), sum(y), acc)

    def either(self, a: Shares, b: Shares, _ops=OPS["either"]) -> Shares:
        """a + b - a * b, the OR of two shared bits."""
        self.ops += _ops
        return self._either(self.rng, a, b)

    def gt(self, a: Shares, b: Shares, _ops=OPS["gt"]) -> Shares:
        """Shared bit [a > b]."""
        self.ops += _ops
        return self._split(self.rng, 0 < (sum(a) - sum(b)) % PRIME <= _HALF)

    def eq_const(self, a: Shares, c: int, _ops=OPS["eq_const"]) -> Shares:
        """Shared bit [a == c] for a public c."""
        self.ops += _ops
        return self._split(self.rng, (sum(a) - c) % PRIME == 0)

    def relax(self, old: Shares, base: Shares, step: Shares, p: tuple[int, Shares],
              q: tuple[int, Shares], _ops=OPS["relax"]) -> tuple[Shares, Shares, Shares, Shares]:
        """Relax ``old`` through cand = base + step: bit = gt(old, cand), then
        select(bit, cand, old) and, for the (public c, label) pairs p and q,
        select(bit, const(c), label)."""
        self.ops += _ops
        (c, y), (c2, y2) = p, q
        return self._relax(self.rng, old, base, step, c, y, c2, y2)


# ---------------------------------------------------------------------------
# Shared instance encoding and the oblivious solve
# ---------------------------------------------------------------------------


def _cell(i: int, j: int, n: int) -> int:
    return i * (n - 1) + (j if j < i else j - 1)


def _edge_cells(instance: RebalancingInstance) -> list[int]:
    """The matrix cell of each edge of ``instance``, in edge order."""
    index = instance.node_index()
    return [_cell(index[e.src], index[e.dst], instance.n) for e in instance.edges]


class SharedInstance(NamedTuple):
    """Complete-digraph encoding: n(n-1) shared capacities then weights.

    Participants and declared bounds are public; which cells hold a real
    edge is not. Cells without an edge carry capacity 0 and never admit
    flow, so the solver need not know the topology.
    """

    nodes: tuple[NodeId, ...]
    m: int
    capacity_bound: int
    weight_bound: int
    capacities: tuple[Shares, ...]
    weights: tuple[Shares, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def public_shape(self) -> tuple[int, int, int, int]:
        return public_shape(self)


def public_shape(instance) -> tuple[int, int, int, int]:
    """(n, m, capacity_bound, weight_bound): what delegates may learn of an instance."""
    return (instance.n, instance.m, instance.capacity_bound, instance.weight_bound)


def default_schedule(shape: tuple[int, int, int, int]) -> int:
    """Worst-case cancel rounds for exactness: every productive round adds
    at least one unit of objective, and the objective tops out at
    m * capacity_bound * weight_bound."""
    _, m, cap_bound, weight_bound = shape
    return m * cap_bound * weight_bound


class MpcSession:
    """k logical delegates plus the dealer, driven deterministically.

    Message order, triples and fresh sharings are all pure functions of
    the session seed, so identical (instance, k, seed) replays produce
    identical shares and identical transcripts.
    """

    def __init__(self, k: int, seed: int):
        self.abb = ArithmeticBlackBox(k, child_seed(seed, "dealer"))

    def share_instance(self, instance: RebalancingInstance) -> SharedInstance:
        guard = 2 * instance.capacity_bound * instance.weight_bound * max(instance.m, 1)
        if PRIME <= guard:
            raise ModelError(
                "declared bounds too large for the sharing modulus: "
                f"need PRIME > {guard}"
            )
        caps = [0] * (instance.n * (instance.n - 1))
        weights = caps.copy()
        for c, e in zip(_edge_cells(instance), instance.edges):
            caps[c], weights[c] = e.capacity, e.weight
        return SharedInstance(
            nodes=instance.nodes,
            m=instance.m,
            capacity_bound=instance.capacity_bound,
            weight_bound=instance.weight_bound,
            capacities=tuple(self.abb.input(x) for x in caps),
            weights=tuple(self.abb.input(x) for x in weights),
        )

    def private_solve(
        self, shared: SharedInstance, schedule: int
    ) -> tuple[list[Shares], Transcript]:
        """Jointly compute a rebalancing over shares in ``schedule`` rounds.

        Returns the shared flow matrix and the operation transcript. The flows
        are a feasible circulation, optimal after ``default_schedule`` rounds.
        """
        return _oblivious_solve(self.abb, shared, schedule)

    def reconstruct_circulation(
        self, shared_flows: list[Shares], instance: RebalancingInstance
    ) -> Circulation:
        values = [reconstruct(s) for s in shared_flows]
        cells = _edge_cells(instance)
        flows = [values[c] for c in cells]
        for c in cells:
            values[c] = 0
        if any(values):
            raise InvariantViolation("private solve put flow on a non-edge")
        return checked_output(Circulation(instance, tuple(flows)), "private solve output")


def prologue_and_round(instance: RebalancingInstance) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(prologue, round): a solve of r rounds on ``instance``'s shape logs prologue + round * r."""
    # One 1-round run of the engine gives both; k and the seed do not
    # reach the transcript (tests/test_oblivious.py, shape by shape).
    session = MpcSession(2, 0)
    transcript = session.private_solve(session.share_instance(instance), 1)[1]
    return transcript.prologue, transcript.body


def private_rebalancing(
    instance: RebalancingInstance, k: int, seed: int, schedule: int | None = None,
    span: Callable[[str], ContextManager] = contextlib.nullcontext,
) -> tuple[SolveReport, DelegateSet, Transcript]:
    """``pcnflow run --mpc``: k delegates solve over shares for ``schedule``
    rounds or the full ``default_schedule``. A negative schedule, or a full
    one above ``MAX_UNCONFIRMED_SCHEDULE``, is refused before any sharing.
    The result must equal, flow for flow, its twin: the bounded canceler
    run for as many cancellations, which the oblivious rounds mirror.
    ``span`` is entered around ``mpc.share``, ``mpc.solve``,
    ``mpc.reconstruct`` and the twin's ``solver.cancel``.
    """
    with span("mpc.share"):
        delegates = select_delegates(instance.nodes, k, seed)
        full = default_schedule(public_shape(instance))
        rounds = full if schedule is None else schedule
        if rounds < 0:
            raise ModelError(f"schedule must be non-negative, got {rounds}")
        if rounds > MAX_UNCONFIRMED_SCHEDULE and schedule is None:
            raise ModelError(
                f"declared bounds imply a {full}-round oblivious schedule; "
                "tighten the instance bounds or pass --schedule explicitly"
            )
        session = MpcSession(k, seed)
        shared = session.share_instance(instance)
    with span("mpc.solve"):
        shared_flows, transcript = session.private_solve(shared, rounds)
    with span("mpc.reconstruct"):
        circ = session.reconstruct_circulation(shared_flows, instance)
    if circ.flows != solve_rebalancing(instance, rounds, span).circulation.flows:
        raise InvariantViolation("private solve diverged from its twin, the lockstep canceler")
    report = SolveReport(circ, circ.objective(), rounds, terminated_early=rounds < full)
    return report, delegates, transcript


def _oblivious_solve(
    abb: ArithmeticBlackBox, shared: SharedInstance, rounds: int
) -> tuple[list[Shares], Transcript]:
    """Gain-cycle canceling with data-independent control flow; returns
    the shared flows and the transcript.

    Mirrors the plaintext bounded solver round for round: a Bellman-Ford
    over all ordered node pairs in ``lockstep_arcs`` order, a final pass
    that flags the first still-relaxable arc, a fixed-length predecessor
    walk that marks the detected cycle, then a masked bottleneck push. Two
    belt-and-braces guards (marked set conserves flow; marked gain is
    positive) force the push amount to zero on any malformed detection, so
    feasibility and monotonicity hold unconditionally.

    The engine's log is taken, and left empty, after the prologue and
    after each round; a round that logged other ops than the first raises
    ``InvariantViolation``.
    """
    n, caps, weights = shared.n, shared.capacities, shared.weights
    arcs = [(i, j, _cell(*pair, n), fwd) for i, j, pair, fwd in lockstep_arcs(n)]
    num_arcs = len(arcs)
    big = 2 * (n + 3) * (shared.weight_bound + 1)

    one = abb.const(1)
    gains, costs = [], []
    for _, _, c, forward in arcs:
        negated = abb.smul(-1, weights[c])
        gains.append(weights[c] if forward else negated)
        costs.append(negated if forward else weights[c])

    flows = [abb.const(0) for _ in range(n * (n - 1))]
    prologue, abb.ops = abb.ops, []
    body: list[str] = []

    for done in range(rounds):
        residuals = []
        masked = []
        for a, (_, _, c, forward) in enumerate(arcs):
            r = abb.sub(caps[c], flows[c]) if forward else flows[c]
            residuals.append(r)
            usable = abb.gt0(r)
            penalty = abb.smul(big, abb.sub(one, usable))
            masked.append(abb.add(costs[a], penalty))

        dist = [abb.const(0) for _ in range(n)]
        pred_arc = [abb.const(num_arcs) for _ in range(n)]
        pred_tail = [abb.const(n) for _ in range(n)]
        notfound = one
        start = abb.const(0)
        for pass_no in range(n + 2):
            final = pass_no == n + 1
            for a, (tail, head, _, _) in enumerate(arcs):
                better, dist[head], pred_arc[head], pred_tail[head] = abb.relax(
                    dist[head], dist[tail], masked[a], (a, pred_arc[head]), (tail, pred_tail[head])
                )
                if final:
                    first = abb.mul(notfound, better)
                    notfound = abb.sub(notfound, first)
                    start = abb.add(start, abb.smul(head, first))
        found = abb.sub(one, notfound)

        # Walk n predecessor steps to land on the detected cycle.
        cur = start
        for _ in range(n):
            nxt = abb.const(0)
            for x in range(n):
                nxt = abb.mul_add(nxt, abb.eq_const(cur, x), pred_tail[x])
            cur = nxt

        # Walk n more steps, marking every predecessor arc traversed.
        marks = [abb.const(0) for _ in range(num_arcs)]
        for _ in range(n):
            pa = abb.const(0)
            ta = abb.const(0)
            for x in range(n):
                here = abb.eq_const(cur, x)
                pa = abb.mul_add(pa, here, pred_arc[x])
                ta = abb.mul_add(ta, here, pred_tail[x])
            for a in range(num_arcs):
                marks[a] = abb.either(marks[a], abb.eq_const(pa, a))
            cur = ta

        # Guards: marked arcs must conserve flow at every node and carry
        # positive total gain; otherwise this round pushes nothing.
        ok = found
        for x in range(n):
            net = abb.const(0)
            for a, (tail, head, _, _) in enumerate(arcs):
                if head == x:
                    net = abb.add(net, marks[a])
                elif tail == x:
                    net = abb.sub(net, marks[a])
            ok = abb.mul(ok, abb.eq0(net))
        gain = abb.const(0)
        for a in range(num_arcs):
            gain = abb.mul_add(gain, marks[a], gains[a])
        ok = abb.mul(ok, abb.gt0(gain))

        bottleneck = abb.const(shared.capacity_bound + 1)
        for a in range(num_arcs):
            candidate = abb.select(marks[a], residuals[a], bottleneck)
            lower = abb.gt(bottleneck, candidate)
            bottleneck = abb.select(lower, candidate, bottleneck)

        delta = abb.mul(ok, bottleneck)
        for a, (_, _, c, forward) in enumerate(arcs):
            change = abb.mul(marks[a], delta)
            flows[c] = abb.add(flows[c], change) if forward else abb.sub(flows[c], change)

        ops, abb.ops = abb.ops, []
        if not done:
            body = ops
        elif ops != body:
            raise InvariantViolation(f"oblivious round {done + 1} logged other ops than round 1")

    return flows, Transcript(tuple(prologue), tuple(body), rounds)
