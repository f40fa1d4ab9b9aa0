"""Exact rebalancing solver.

Every plaintext engine reads one ``ResidualNetwork``: the instance's
residual network under some flows, on its node indices (Ahuja, Magnanti
and Orlin, *Network Flows*, 1993, §2.4 and §9.7). The solve starts from
saturated flows, which are f' = 0 of the min-cost flow problem on the
reversed graph (f'(v,u) = m(u,v) - f(u,v)). The primal-dual method
(ibid., ch. 9) runs one Dijkstra over reduced costs per distinct
shortest-path cost, then Dinic blocking flows on the residual arcs of
reduced cost zero. The absence of a positive-gain residual cycle then
certifies the optimum.

Bounded runs (``iteration_bound``) cancel gain cycles in the same network,
from zero flows. Every iterate there is a feasible circulation and the
objective only ever grows, so stopping after k rounds yields a usable
partial rebalancing.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Callable, ContextManager, Iterable, Iterator, NamedTuple

from .model import (
    InvariantViolation,
    JsonIds,
    ModelError,
    NodeId,
    RebalancingInstance,
    is_json_int,
    json_array,
)


SolverError = InvariantViolation  # bench/ imports and raises it from here


class ResidualNetwork(NamedTuple):
    """An instance's residual network under some flows, on node indices.

    Edge i gives arc 2i, dst -> src at cost w with residual f_i (undoing
    flow), and arc 2i+1, src -> dst at cost -w with residual m_i - f_i:
    costs are negated gains. Nodes the flows leave unbalanced hang off the
    super source n (net inflow) or feed the super sink n+1 (net outflow)
    by zero-cost arc pairs after the edge arcs. The reverse of arc a is
    a ^ 1; ``adj[u]`` lists the arcs out of u in arc order.
    """

    to: list[int]
    cap: list[int]
    cost: list[int]
    adj: list[list[int]]


class Circulation(NamedTuple):
    """Integral edge flows with zero net flow at every node."""

    instance: RebalancingInstance
    flows: tuple[int, ...]

    def objective(self) -> int:
        return sum(e.weight * f for e, f in zip(self.instance.edges, self.flows))

    def validate(self) -> None:
        inst = self.instance
        if len(self.flows) != inst.m:
            raise ModelError("flow vector length does not match edge count")
        net: dict[NodeId, int] = {v: 0 for v in inst.nodes}
        for (src, dst, capacity, _), f in zip(inst.edges, self.flows):
            if not isinstance(f, int):
                raise ModelError(f"non-integral flow on {src}->{dst}")
            if not 0 <= f <= capacity:
                raise ModelError(f"flow {f} on {src}->{dst} outside [0, {capacity}]")
            net[dst] += f
            net[src] -= f
        for v, d in net.items():
            if d != 0:
                raise ModelError(f"conservation violated at {v} (net {d})")


class SolveReport(NamedTuple):
    circulation: Circulation
    objective: int
    iterations: int
    terminated_early: bool


def residual_network(instance: RebalancingInstance, flows) -> ResidualNetwork:
    """The residual network of ``instance`` under edge ``flows``."""
    idx = instance.node_index()
    n = instance.n
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n + 2)]

    def pair(u: int, v: int, residual: int, back: int, c: int) -> None:
        # The arc u -> v, then its reverse.
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to.extend((v, u))
        cap.extend((residual, back))
        cost.extend((c, -c))

    inflow = [0] * n
    for (src, dst, capacity, weight), f in zip(instance.edges, flows):
        u, v = idx[src], idx[dst]
        pair(v, u, f, capacity - f, weight)
        inflow[v] += f
        inflow[u] -= f
    for v, b in enumerate(inflow):
        if b > 0:
            pair(n, v, b, 0, 0)
        elif b < 0:
            pair(v, n + 1, -b, 0, 0)
    return ResidualNetwork(to, cap, cost, adj)


def reduce_to_min_cost_flow(instance: RebalancingInstance) -> ResidualNetwork:
    """The residual network at saturated flows, where the solve starts:
    f' = m - f reverses every edge and f = m is f' = 0, so arc 2i is
    reversed edge i at its whole capacity and cost w. The super arcs carry
    each node's incoming minus outgoing capacity, the net outflow it must
    produce in the reversed graph; these supplies sum to zero."""
    return residual_network(instance, [e.capacity for e in instance.edges])


class FlowResult(NamedTuple):
    cap: list[int]
    iterations: int


def solve_min_cost_flow(problem: ResidualNetwork) -> FlowResult:
    """Primal-dual min-cost flow (Ahuja, Magnanti and Orlin, *Network
    Flows*, 1993, ch. 9).

    Routes all supply from the super source at minimum cost. Each phase
    runs one Dijkstra over reduced costs from the super source and adds
    the distances to the potentials of the reached nodes; every shortest
    path to the sink then has reduced cost zero. Dinic blocking flows on
    the residual arcs of reduced cost zero (BFS levels, then a DFS with
    per-node current-arc pointers and an explicit stack) saturate all of
    them before the next phase, so there is one Dijkstra per distinct
    shortest-path cost. The method stops when Dijkstra cannot reach the
    sink.

    Returns the residuals of the optimum, on a copy of ``problem.cap``.
    ``iterations`` counts the augmenting paths the blocking flows push.
    Exact integer arithmetic throughout; deterministic given the arc
    order (heap ties break on node index, the DFS follows arc order).
    """
    to, cost, adj = problem.to, problem.cost, problem.adj
    cap = list(problem.cap)
    for a, c in enumerate(cost):
        if c < 0 and cap[a] > 0:
            raise InvariantViolation(f"negative cost on arc {to[a ^ 1]}->{to[a]}")

    n = len(adj)
    src, snk = n - 2, n - 1
    potential = [0] * n
    iterations = 0
    INF = float("inf")

    while True:
        dist: list[float] = [INF] * n
        dist[src] = 0
        heap: list[tuple[int, int]] = [(0, src)]
        done = [False] * n
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for a in adj[u]:
                if cap[a] <= 0:
                    continue
                v = to[a]
                if done[v]:
                    continue
                nd = d + cost[a] + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if dist[snk] == INF:
            break
        # Nodes Dijkstra did not reach stay unreachable for good: flow only
        # ever moves between reached nodes, so their potentials never matter.
        for v in range(n):
            if dist[v] < INF:
                potential[v] += int(dist[v])

        # Residual arcs of reduced cost zero out of reached nodes. Pushing
        # flow along one only opens its reverse, also of reduced cost zero,
        # so the subgraph is fixed for the phase; capacities change.
        zero: list[list[int]] = [
            [a for a in adj[u] if cost[a] + potential[u] - potential[to[a]] == 0]
            if done[u]
            else []
            for u in range(n)
        ]
        while True:
            level = [-1] * n
            level[src] = 0
            frontier = [src]
            while frontier and level[snk] < 0:
                nxt = []
                for u in frontier:
                    for a in zero[u]:
                        v = to[a]
                        if cap[a] > 0 and level[v] < 0:
                            level[v] = level[u] + 1
                            nxt.append(v)
                frontier = nxt
            if level[snk] < 0:
                break

            # Blocking flow: walk forward along current arcs, retreat from
            # dead ends, and after each push resume at the tail of the
            # first saturated arc.
            pointer = [0] * n
            path: list[int] = []
            u = src
            while True:
                if u == snk:
                    push = min(cap[a] for a in path)
                    cut = -1
                    for i, a in enumerate(path):
                        cap[a] -= push
                        cap[a ^ 1] += push
                        if cut < 0 and cap[a] == 0:
                            cut = i
                    iterations += 1
                    u = to[path[cut] ^ 1]
                    del path[cut:]
                    continue
                arcs = zero[u]
                i = pointer[u]
                want = level[u] + 1
                while i < len(arcs):
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == want:
                        break
                    i += 1
                pointer[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:
                    u = to[path.pop() ^ 1]
                    pointer[u] += 1
                else:
                    break

    return FlowResult(cap, iterations)


def checked_output(circ: Circulation, what: str) -> Circulation:
    """Validate a circulation an engine computed; failure is an engine bug."""
    try:
        circ.validate()
    except ModelError as exc:
        raise InvariantViolation(f"{what} is not a circulation: {exc}") from exc
    return circ


def recover_circulation(
    instance: RebalancingInstance, problem: ResidualNetwork, flow: FlowResult
) -> Circulation:
    """Edge i's flow is the residual of arc 2i, f = m - f'. The optimum is
    certified before it is returned: no positive-gain cycle may remain."""
    cap = flow.cap
    circ = checked_output(Circulation(instance, tuple(cap[: 2 * instance.m : 2])), "recovered flow")
    # Whether a cycle is found does not depend on the arc order; arc ids need no sort.
    if find_gain_cycle(problem._replace(cap=cap), range(2 * instance.m), instance.n) is not None:
        raise InvariantViolation("recovered flow is not optimal: a positive-gain cycle remains")
    return circ


# ---------------------------------------------------------------------------
# Bounded mode: gain-cycle canceling on the original graph.
# ---------------------------------------------------------------------------


def lockstep_arcs(n: int) -> Iterator[tuple[int, int, tuple[int, int], bool]]:
    """Candidate residual arcs as (tail, head, edge pair, forward).

    Ordered node pairs come in lexicographic order; pair (u, v) hosts the
    forward residual of edge (u, v), then the backward residual of edge
    (v, u), both traversed u -> v. The oblivious solver walks them all;
    the plaintext canceler walks the arcs whose edge exists in the same
    order (``lockstep_order``), so the two engines stay in lockstep round
    for round.
    """
    for u in range(n):
        for v in range(n):
            if u != v:
                yield u, v, (u, v), True
                yield u, v, (v, u), False


def lockstep_order(net: ResidualNetwork, m: int) -> list[int]:
    """The 2m edge arcs of ``net`` in ``lockstep_arcs`` order.

    Sorting by (tail, head) is the order ``lockstep_arcs`` walks the
    n(n-1) node pairs in, with the arcs of absent edges left out; no node
    pair hosts two edges, so no two arcs tie.
    """
    to = net.to
    return sorted(range(2 * m), key=lambda a: (to[a ^ 1], to[a]))


def find_gain_cycle(net: ResidualNetwork, order: Iterable[int], n: int) -> list[int] | None:
    """One Bellman-Ford sweep over the arcs ``order`` lists, on nodes
    0..n-1, for a positive-gain residual cycle; returns its arc ids.

    A feasible circulation is optimal exactly when none exists (Ahuja,
    Magnanti and Orlin, *Network Flows*, Thm 9.1), so ``None`` certifies
    the flows: the bounded canceler stops on it, and ``run`` and
    ``verify`` check it. Distances start at zero everywhere (a virtual
    source), costs are those of the arcs with residual >= 1. After n+1
    relaxation passes only a negative-cost (positive-gain) cycle can still
    produce updates, so any relaxation in the final pass betrays one;
    walking n predecessor steps back from the first head relaxed there
    lands on that cycle. A pass that relaxes nothing ends the sweep: no
    later pass could.
    """
    to, cap, cost = net.to, net.cap, net.cost
    live = [(to[a ^ 1], to[a], cost[a], a) for a in order if cap[a] >= 1]
    dist = [0] * n
    pred = [-1] * n
    for _ in range(n + 2):
        start = None  # the first head this pass relaxes
        for tail, head, c, a in live:
            cand = dist[tail] + c
            if cand < dist[head]:
                dist[head] = cand
                pred[head] = a
                if start is None:
                    start = head
        if start is None:
            return None

    def tail(v: int) -> int:  # the tail of v's predecessor arc
        if pred[v] < 0:
            raise InvariantViolation("broken predecessor chain during extraction")
        return to[pred[v] ^ 1]

    cur = start
    for _ in range(n):  # walk onto the predecessor cycle
        cur = tail(cur)
    cycle, v = [pred[cur]], tail(cur)
    while v != cur:
        cycle.append(pred[v])
        v = tail(v)
    cycle.reverse()
    return cycle


def _cancel_cycles(instance: RebalancingInstance, bound: int) -> tuple[Circulation, int, bool]:
    net = residual_network(instance, [0] * instance.m)
    order = lockstep_order(net, instance.m)
    cap = net.cap
    iterations = 0
    while (cycle := find_gain_cycle(net, order, instance.n)) is not None and iterations < bound:
        push = min(cap[a] for a in cycle)
        for a in cycle:
            cap[a] -= push
            cap[a ^ 1] += push
        iterations += 1
    # A cycle left over means the bound cut the canceling short.
    return Circulation(instance, tuple(cap[: 2 * instance.m : 2])), iterations, cycle is not None


def solve_rebalancing(
    instance: RebalancingInstance,
    iteration_bound: int | None = None,
    span: Callable[[str], ContextManager] = contextlib.nullcontext,
) -> SolveReport:
    """Compute a maximum-value rebalancing circulation.

    With no bound the primal-dual min-cost flow runs to the optimum,
    which ``recover_circulation`` certifies, and ``iterations`` counts the
    augmenting paths its blocking flows pushed. With ``iteration_bound=k`` at most k cycle
    cancellations are performed and ``iterations`` counts them; the
    result is always a feasible circulation and its objective is
    nondecreasing in k (k=0 yields the zero circulation).

    ``span(name)`` is entered around each stage, e.g. to time it:
    ``solver.reduce``, ``solver.mcf`` and ``solver.recover`` without a
    bound, ``solver.cancel`` with one; by default it does nothing.
    """
    if iteration_bound is None:
        with span("solver.reduce"):
            problem = reduce_to_min_cost_flow(instance)
        with span("solver.mcf"):
            flow = solve_min_cost_flow(problem)
        with span("solver.recover"):
            circ = recover_circulation(instance, problem, flow)
        return SolveReport(circ, circ.objective(), flow.iterations, terminated_early=False)
    if iteration_bound < 0:
        raise ModelError(f"iteration bound must be non-negative, got {iteration_bound}")
    with span("solver.cancel"):
        circ, iters, early = _cancel_cycles(instance, iteration_bound)
    checked_output(circ, "bounded canceler output")
    return SolveReport(circ, circ.objective(), iters, terminated_early=early)


def circulation_to_json_dict(circ: Circulation) -> dict:
    flows = [
        {"from": e.src, "to": e.dst, "amount": f}
        for e, f in zip(circ.instance.edges, circ.flows)
        if f > 0
    ]
    return {"flows": flows, "objective": circ.objective()}


def dump_circulation(circ: Circulation) -> str:
    """Text of ``circulation.json``, equal to dumping ``circulation_to_json_dict``."""
    names = JsonIds()
    flows = [
        f'{{\n      "from": {names[e.src]},\n      "to": {names[e.dst]},\n'
        f'      "amount": {f}\n    }}'
        for e, f in zip(circ.instance.edges, circ.flows)
        if f > 0
    ]
    return f'{{\n  "flows": {json_array(flows, "  ")},\n  "objective": {circ.objective()}\n}}\n'


def circulation_from_json_dict(data: dict, instance: RebalancingInstance) -> Circulation:
    if not isinstance(data, dict) or set(data) - {"flows", "objective"}:
        raise ModelError("malformed circulation document")
    if not isinstance(data.get("flows"), list):
        raise ModelError("circulation document needs a flows list")
    if "objective" in data and not is_json_int(data["objective"]):
        raise ModelError("circulation objective must be an integer")
    amounts: dict[tuple[NodeId, NodeId], int] = {}
    for raw in data["flows"]:
        if not isinstance(raw, dict) or set(raw) != {"from", "to", "amount"}:
            raise ModelError("malformed flow entry")
        key = (raw["from"], raw["to"])
        if not isinstance(key[0], str) or not isinstance(key[1], str):
            raise ModelError("flow endpoints must be strings")
        if not is_json_int(raw["amount"]):
            raise ModelError(f"flow amount on {key[0]}->{key[1]} must be an integer")
        if key in amounts:
            raise ModelError(f"flow {key[0]}->{key[1]} listed twice")
        amounts[key] = raw["amount"]
    known = {(e.src, e.dst) for e in instance.edges}
    stray = set(amounts) - known
    if stray:
        raise ModelError(f"flows on unknown edges: {sorted(stray)}")
    circ = Circulation(
        instance, tuple(amounts.get((e.src, e.dst), 0) for e in instance.edges)
    )
    circ.validate()
    if "objective" in data and data["objective"] != circ.objective():
        raise ModelError(
            f"stated objective {data['objective']} != recomputed {circ.objective()}"
        )
    return circ

