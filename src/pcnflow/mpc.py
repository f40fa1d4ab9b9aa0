"""Delegate sortition and a simulated secret-shared rebalancing solve.

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

A shared value is a ``Shared`` everywhere, in the engine and in its API:
k field elements, delegate i holding element i, plus an optional shadow.
``share`` is the one routine that splits a value, ``reconstruct`` the one
that opens it. Seeds are ints; the dealer's seed is ``child_seed(seed,
"dealer")``, derived like every other seeded choice in the pipeline.

The dealer draws every field element by the rule of ``_field_elements``
(inlined for a Beaver batch), which yields exactly the stream of
``random.Random.randrange(PRIME)``. Draws are
taken in operation order: an input or a comparison bit takes the k-1
random shares of its sharing; a multiplication takes one batch of 3k-1,
the Beaver triple's a and b, then the k-1 random shares of a, of b and
of ab. So the share values are a pure function of the session seed, and
shadow mode, which only checks, and the fused helpers do not change them.

The private solve works on a complete-digraph matrix of shared capacities
and weights, so even the topology stays inside the sharing. It repeatedly
cancels gain cycles found by an oblivious Bellman-Ford whose control flow
is fixed: comparisons yield shared bits, shared bits drive arithmetic
selection, and rounds past convergence push zero. Every intermediate flow
matrix is a feasible circulation, so exhausting the schedule early simply
yields the best rebalancing found so far. The worst-case schedule needed
for exactness is edges * capacity_bound * weight_bound (one unit of
objective per productive round), which is the price of obliviousness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .model import ModelError, NodeId, RebalancingInstance, child_seed
from .solver import Circulation, InternalInconsistency, checked_output, lockstep_arcs

PRIME = (1 << 61) - 1  # Mersenne prime; fits intermediate objectives with room
_HALF = (PRIME - 1) // 2
_BITS = PRIME.bit_length()


class KTooLarge(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class Shared:
    """One secret-shared value: delegate i holds field element ``v[i]``.

    ``p`` is the shadow, the integer the shares stand for. It is tracked
    only by an engine running with ``shadow=True`` and is None otherwise.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: list[int], p: int | None):
        self.v = v
        self.p = p


def _field_elements(rng: random.Random, count: int) -> list[int]:
    """Draw ``count`` uniform field elements: the one place the dealer draws.

    Each element is ``rng.getrandbits(61)``, and a draw equal to PRIME (the
    only 61-bit value outside the field) is dropped and drawn again. That
    is exactly the stream ``rng.randrange(PRIME)`` yields, draw for draw,
    without its two Python frames around every ``getrandbits`` call.
    """
    out = list(map(rng.getrandbits, repeat(_BITS, count)))
    if PRIME in out:  # each draw is PRIME with probability 2**-61
        out = [x for x in out if x != PRIME]
        out += _field_elements(rng, count - len(out))
    return out


def share(x: int, k: int, rng: random.Random) -> list[int]:
    """Split x into k additive shares mod PRIME, one field element each.

    The first k-1 shares are fresh uniform field elements drawn before x
    is ever touched, so any k-1 of the pieces carry no information about x.
    x may be any field element; ``ArithmeticBlackBox.input`` is where an
    input is checked to open back to itself.
    """
    if k < 2:
        raise ModelError("need at least two delegates")
    parts = _field_elements(rng, k - 1)
    parts.append((x - sum(parts)) % PRIME)
    return parts


def reconstruct(values: list[int]) -> int:
    """Sum shares mod PRIME and map to the centered representative."""
    total = sum(values) % PRIME
    return total - PRIME if total > _HALF else total


# ---------------------------------------------------------------------------
# Sortition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelegateSet:
    delegates: tuple[NodeId, ...]


def sortition_digest(seed: int, node: NodeId) -> bytes:
    return hashlib.sha256(f"{seed}|{node}".encode()).digest()


def select_delegates(participants, k: int, seed: int) -> DelegateSet:
    """Pick the k participants whose seeded digests are smallest."""
    pool = sorted(set(participants))
    if k < 2:
        raise ModelError("need at least two delegates")
    if k > len(pool):
        raise KTooLarge(f"k={k} exceeds {len(pool)} participants")
    ranked = sorted(pool, key=lambda v: (sortition_digest(seed, v), v))
    return DelegateSet(delegates=tuple(ranked[:k]))


# ---------------------------------------------------------------------------
# Arithmetic black box
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """Public trace of primitive operations, one entry per op, shapes only."""

    ops: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def dumps(self) -> str:
        return "\n".join(self.ops) + ("\n" if self.ops else "")


class ArithmeticBlackBox:
    """k-party additive-sharing engine with an honest dealer.

    All delegates run in-process; the dealer supplies Beaver triples for
    multiplication and fresh sharings of comparison bits. With
    ``shadow=True`` every operation also tracks the true integer it
    represents: a value past PRIME/2 in magnitude raises ``OutOfRange``,
    catching wraparound bugs that shares alone would hide, and shares that
    stop opening to their shadow raise ``InternalInconsistency``. Both
    checks are plain raises, so they hold under ``python -O`` too.

    The derived helpers are fused: with shadow off each logs the ops and
    takes the draws of the primitives it stands for, in order, but builds
    no intermediate ``Shared``, as a Beaver product or a comparison needs
    only share sums. With shadow on each composes the checked primitives.
    """

    def __init__(self, k: int, rng_seed: int, shadow: bool = False):
        self.k = k
        self.rng = random.Random(rng_seed)
        self.shadow = shadow
        self.ops: list[str] = []
        self._zeros = [0] * k
        self._batch = (_BITS,) * (3 * k - 1)
        self._consts: dict[int, Shared] = {}

    # -- plumbing ----------------------------------------------------------

    def _wrap(self, vals: list[int], shadow_of: Callable[..., int], *operands: Shared) -> Shared:
        """Build a result in shadow mode, checking it and its operands.

        ``shadow_of`` maps the operands' shadows to the result's. Every
        operand must carry a shadow its shares open to, the result must
        open to its own shadow, and that shadow must not wrap the modulus.
        With shadow off the primitives build ``Shared(vals, None)``
        themselves and never come here.
        """
        plains = []
        for x in operands:
            if x.p is None:
                raise InternalInconsistency("shadow engine got a value without a shadow")
            if sum(x.v) % PRIME != x.p % PRIME:
                raise InternalInconsistency("operand shares do not open to its shadow")
            plains.append(x.p)
        plain = shadow_of(*plains)
        if abs(plain) > _HALF:
            raise OutOfRange(f"intermediate value {plain} would wrap the modulus")
        if sum(vals) % PRIME != plain % PRIME:
            raise InternalInconsistency("shadow value diverged from shares")
        return Shared(vals, plain)

    def const(self, x: int) -> Shared:
        cached = self._consts.get(x)
        if cached is None:
            vals = [x % PRIME] + [0] * (self.k - 1)
            cached = self._wrap(vals, lambda: x) if self.shadow else Shared(vals, None)
            self._consts[x] = cached
        return cached

    def input(self, x: int) -> Shared:
        if abs(x) > _HALF:
            raise OutOfRange(f"{x} cannot be represented without wraparound")
        vals = share(x, self.k, self.rng)
        return self._wrap(vals, lambda: x) if self.shadow else Shared(vals, None)

    # -- logged primitives ---------------------------------------------------

    def add(self, a: Shared, b: Shared) -> Shared:
        self.ops.append("add")
        vals = [(x + y) % PRIME for x, y in zip(a.v, b.v)]
        return self._wrap(vals, lambda p, q: p + q, a, b) if self.shadow else Shared(vals, None)

    def sub(self, a: Shared, b: Shared) -> Shared:
        self.ops.append("add")
        vals = [(x - y) % PRIME for x, y in zip(a.v, b.v)]
        return self._wrap(vals, lambda p, q: p - q, a, b) if self.shadow else Shared(vals, None)

    def smul(self, c: int, a: Shared) -> Shared:
        """Multiply by a public scalar (local operation at each delegate)."""
        self.ops.append("mul public")
        vals = [(c * x) % PRIME for x in a.v]
        return self._wrap(vals, lambda p: c * p, a) if self.shadow else Shared(vals, None)

    def mul(self, a: Shared, b: Shared) -> Shared:
        """Beaver-triple multiplication; the dealer supplies (a, b, ab)."""
        self.ops.append("mul shared")
        vals = self._beaver(sum(a.v), sum(b.v), self._zeros)
        return self._wrap(vals, lambda p, q: p * q, a, b) if self.shadow else Shared(vals, None)

    def _beaver(self, x: int, y: int, acc: list[int]) -> list[int]:
        """Shares of sum(acc) + x*y, x and y being the factors' share sums.

        The dealer's batch is a, b, then the k-1 drawn shares of a, b and
        ab. The delegates open d = x - a and e = y - b (any representative
        mod PRIME yields the same shares); share i < k-1 of x*y is c_i +
        d*b_i + e*a_i, plus d*e on share 0. The closing shares are never
        built: all k sum to (a+d)(b+e) = x*y, so the last is x*y minus the
        others, the very residue the closing shares would give.
        """
        k = self.k
        r = list(map(self.rng.getrandbits, self._batch))  # _field_elements, inlined
        if PRIME in r:
            r = [x for x in r if x != PRIME]
            r += _field_elements(self.rng, 3 * k - 1 - len(r))
        d, e = x - r[0], y - r[1]
        sa, sb, sc = r[2 : k + 1], r[k + 1 : 2 * k], r[2 * k :]
        sc[0] += d * e
        vals = [(s + c + d * b + e * a) % PRIME for s, a, b, c in zip(acc, sa, sb, sc)]
        vals.append((sum(acc) + x * y - sum(vals)) % PRIME)
        return vals

    def gt0(self, a: Shared) -> Shared:
        """Shared bit [a >= 1]; the comparison itself is a dealer service."""
        self.ops.append("cmp")
        vals = share(1 if reconstruct(a.v) >= 1 else 0, self.k, self.rng)
        return self._wrap(vals, lambda p: int(p >= 1), a) if self.shadow else Shared(vals, None)

    def eq0(self, a: Shared) -> Shared:
        """Shared bit [a == 0]."""
        self.ops.append("cmp")
        vals = share(1 if reconstruct(a.v) == 0 else 0, self.k, self.rng)
        return self._wrap(vals, lambda p: int(p == 0), a) if self.shadow else Shared(vals, None)

    def reveal(self, a: Shared) -> int:
        self.ops.append("reveal")
        return reconstruct(a.v)

    # -- derived helpers (fused with shadow off) -------------------------------

    def _bit(self, bit: bool) -> Shared:
        vals = _field_elements(self.rng, self.k - 1)  # split as ``share`` splits
        vals.append((bit - sum(vals)) % PRIME)
        return Shared(vals, None)

    def select(self, bit: Shared, x: Shared, y: Shared) -> Shared:
        """y + bit * (x - y): oblivious choice driven by a shared bit."""
        if self.shadow:
            return self.add(y, self.mul(bit, self.sub(x, y)))
        self.ops += ("add", "mul shared", "add")
        return Shared(self._beaver(sum(bit.v), sum(x.v) - sum(y.v), y.v), None)

    def mul_add(self, acc: Shared, x: Shared, y: Shared) -> Shared:
        """acc + x * y."""
        if self.shadow:
            return self.add(acc, self.mul(x, y))
        self.ops += ("mul shared", "add")
        return Shared(self._beaver(sum(x.v), sum(y.v), acc.v), None)

    def either(self, a: Shared, b: Shared) -> Shared:
        """a + b - a * b, the OR of two shared bits."""
        if self.shadow:
            both = self.mul(a, b)
            return self.sub(self.add(a, b), both)
        self.ops += ("mul shared", "add", "add")
        vals = self._beaver(sum(a.v), sum(b.v), [-p - q for p, q in zip(a.v, b.v)])
        return Shared([-x % PRIME for x in vals], None)

    def gt(self, a: Shared, b: Shared) -> Shared:
        """Shared bit [a > b]."""
        if self.shadow:
            return self.gt0(self.sub(a, b))
        self.ops += ("add", "cmp")
        return self._bit(0 < (sum(a.v) - sum(b.v)) % PRIME <= _HALF)

    def eq_const(self, a: Shared, c: int) -> Shared:
        """Shared bit [a == c] for a public c."""
        if self.shadow:
            return self.eq0(self.sub(a, self.const(c)))
        self.ops += ("add", "cmp")
        return self._bit((sum(a.v) - c) % PRIME == 0)

    def relax(
        self, old: Shared, base: Shared, step: Shared, *labels: tuple[int, Shared]
    ) -> tuple[Shared, ...]:
        """Relax ``old`` through cand = base + step: bit = gt(old, cand), then
        select(bit, cand, old) and, per (public c, label), select(bit, const(c), label)."""
        if self.shadow:
            cand = self.add(base, step)
            bit = self.gt(old, cand)
            dist = self.select(bit, cand, old)
            return bit, dist, *[self.select(bit, self.const(c), y) for c, y in labels]
        self.ops += ("add", "add", "cmp") + ("add", "mul shared", "add") * (1 + len(labels))
        gap = sum(old.v) - sum(base.v) - sum(step.v)
        bit = self._bit(0 < gap % PRIME <= _HALF)
        b = sum(bit.v)
        dist = Shared(self._beaver(b, -gap, old.v), None)
        return bit, dist, *[Shared(self._beaver(b, c - sum(y.v), y.v), None) for c, y in labels]


# ---------------------------------------------------------------------------
# Shared instance encoding and the oblivious solve
# ---------------------------------------------------------------------------


def _cell(i: int, j: int, n: int) -> int:
    return i * (n - 1) + (j if j < i else j - 1)


@dataclass(frozen=True)
class SharedInstance:
    """Complete-digraph encoding: n(n-1) shared capacities then weights.

    Participants and declared bounds are public; which cells hold a real
    edge is not. Cells without an edge carry capacity 0 and never admit
    flow, so the solver need not know the topology.
    """

    nodes: tuple[NodeId, ...]
    m: int
    capacity_bound: int
    weight_bound: int
    capacities: tuple[Shared, ...]
    weights: tuple[Shared, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def public_shape(self) -> tuple[int, int, int, int]:
        return (self.n, self.m, self.capacity_bound, self.weight_bound)


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

    def __init__(self, k: int, seed: int, shadow: bool = False):
        self.k = k
        self.abb = ArithmeticBlackBox(k, child_seed(seed, "dealer"), shadow=shadow)

    def share_instance(self, instance: RebalancingInstance) -> SharedInstance:
        guard = 2 * instance.capacity_bound * instance.weight_bound * max(instance.m, 1)
        if PRIME <= guard:
            raise OutOfRange(
                "declared bounds too large for the sharing modulus: "
                f"need PRIME > {guard}"
            )
        n = instance.n
        index = instance.node_index()
        caps = [0] * (n * (n - 1))
        weights = [0] * (n * (n - 1))
        for e in instance.edges:
            c = _cell(index[e.src], index[e.dst], n)
            caps[c] = e.capacity
            weights[c] = e.weight
        return SharedInstance(
            nodes=instance.nodes,
            m=instance.m,
            capacity_bound=instance.capacity_bound,
            weight_bound=instance.weight_bound,
            capacities=tuple(self.abb.input(x) for x in caps),
            weights=tuple(self.abb.input(x) for x in weights),
        )

    def private_solve(
        self, shared: SharedInstance, schedule: int | None = None
    ) -> tuple[list[Shared], Transcript]:
        """Jointly compute an optimal rebalancing over shares.

        Returns the shared flow matrix and the transcript of primitive
        operations. With the default schedule the reconstructed flows
        attain the plaintext optimum; a shorter schedule still yields a
        feasible circulation, just possibly a smaller one.
        """
        if schedule is None:
            schedule = default_schedule(shared.public_shape())
        if schedule < 0:
            raise ModelError(f"schedule must be non-negative, got {schedule}")
        mark = len(self.abb.ops)
        flows = _oblivious_solve(
            self.abb,
            shared.n,
            shared.capacities,
            shared.weights,
            schedule,
            shared.capacity_bound,
            shared.weight_bound,
        )
        return flows, Transcript(tuple(self.abb.ops[mark:]))

    def reconstruct_circulation(
        self, shared_flows: list[Shared], instance: RebalancingInstance
    ) -> Circulation:
        n = instance.n
        values = [reconstruct(s.v) for s in shared_flows]
        index = instance.node_index()
        known = set()
        flows = []
        for e in instance.edges:
            c = _cell(index[e.src], index[e.dst], n)
            known.add(c)
            flows.append(values[c])
        stray = [v for i, v in enumerate(values) if i not in known and v != 0]
        if stray:
            raise InternalInconsistency("private solve put flow on a non-edge")
        return checked_output(Circulation(instance, tuple(flows)), "private solve output")

    def reveal_per_participant(
        self, shared_flows: list[Shared], instance: RebalancingInstance
    ) -> dict[NodeId, dict[tuple[NodeId, NodeId], int]]:
        """Disclose to each participant exactly its incident edge flows."""
        n = instance.n
        index = instance.node_index()
        out: dict[NodeId, dict[tuple[NodeId, NodeId], int]] = {}
        for node in instance.nodes:
            disclosure = {}
            for e in instance.edges:
                if node in (e.src, e.dst):
                    c = _cell(index[e.src], index[e.dst], n)
                    disclosure[(e.src, e.dst)] = self.abb.reveal(shared_flows[c])
            out[node] = disclosure
        return out


def _oblivious_solve(
    abb: ArithmeticBlackBox,
    n: int,
    caps: tuple[Shared, ...],
    weights: tuple[Shared, ...],
    rounds: int,
    capacity_bound: int,
    weight_bound: int,
) -> list[Shared]:
    """Gain-cycle canceling with data-independent control flow.

    Mirrors the plaintext bounded solver round for round: a Bellman-Ford
    over all ordered node pairs in ``lockstep_arcs`` order, a final pass
    that flags the first still-relaxable arc, a fixed-length predecessor
    walk that marks the detected cycle, then a masked bottleneck push. Two
    belt-and-braces guards (marked set conserves flow; marked gain is
    positive) force the push amount to zero on any malformed detection, so
    feasibility and monotonicity hold unconditionally.
    """
    arcs = [(i, j, _cell(*pair, n), fwd) for i, j, pair, fwd in lockstep_arcs(n)]
    num_arcs = len(arcs)
    big = 2 * (n + 3) * (weight_bound + 1)

    one = abb.const(1)
    gains = []
    costs = []
    for _, _, c, forward in arcs:
        if forward:
            gains.append(weights[c])
            costs.append(abb.smul(-1, weights[c]))
        else:
            gains.append(abb.smul(-1, weights[c]))
            costs.append(weights[c])

    flows = [abb.const(0) for _ in range(n * (n - 1))]

    for _ in range(rounds):
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

        bottleneck = abb.const(capacity_bound + 1)
        for a in range(num_arcs):
            candidate = abb.select(marks[a], residuals[a], bottleneck)
            lower = abb.gt(bottleneck, candidate)
            bottleneck = abb.select(lower, candidate, bottleneck)

        delta = abb.mul(ok, bottleneck)
        for a, (_, _, c, forward) in enumerate(arcs):
            change = abb.mul(marks[a], delta)
            flows[c] = abb.add(flows[c], change) if forward else abb.sub(flows[c], change)

    return flows
