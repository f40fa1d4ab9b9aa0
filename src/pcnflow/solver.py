"""Exact rebalancing solver.

The maximum-value rebalancing is found by a change of variables that turns
the circulation problem into a min-cost flow problem on the reversed graph
(f'(v,u) = m(u,v) - f(u,v)), solved exactly by the primal-dual method
(Ahuja, Magnanti and Orlin, *Network Flows*, 1993, ch. 9): one Dijkstra
over reduced costs per distinct shortest-path cost, then Dinic blocking
flows on the residual arcs of reduced cost zero. Costs in the reduced
problem equal the edge weights, so they are non-negative and Dijkstra
needs no negative-edge handling.

Bounded runs (``iteration_bound``) use a different engine: deterministic
canceling of gain cycles in the residual graph of the original problem.
Every iterate there is a feasible circulation and the objective only ever
grows, so stopping after k rounds yields a usable partial rebalancing.
"""

from __future__ import annotations

import contextlib
import heapq
from enum import Enum
from typing import Callable, ContextManager, Iterator, NamedTuple

from .model import (
    InvariantViolation,
    JsonIds,
    ModelError,
    NodeId,
    RebalancingInstance,
    is_json_int,
    json_array,
)


# The reduction's super source and sink. Node ids are strings, so neither
# can be mistaken for an instance node, whatever its name.
class SuperNode(Enum):
    SOURCE = "super source"
    SINK = "super sink"


SUPER_SOURCE = SuperNode.SOURCE
SUPER_SINK = SuperNode.SINK


class SolverError(InvariantViolation):
    """An engine broke its own invariants; its output cannot be trusted."""


class Arc(NamedTuple):
    src: NodeId | SuperNode
    dst: NodeId | SuperNode
    capacity: int
    cost: int


class MinCostFlowProblem(NamedTuple):
    """Reversed-graph flow problem produced by the reduction.

    ``arcs[i]`` for i < m is the reversal of ``instance.edges[i]``; super
    arcs follow. ``supplies`` holds the per-node imbalance b(v) aligned
    with ``nodes`` (super source/sink carry 0, their role is encoded by
    the super arcs).
    """

    nodes: tuple[NodeId | SuperNode, ...]
    arcs: tuple[Arc, ...]
    supplies: tuple[int, ...]


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


def reduce_to_min_cost_flow(instance: RebalancingInstance) -> MinCostFlowProblem:
    """Reverse every edge and attach super source/sink arcs.

    Node v's supply is its incoming capacity minus its outgoing capacity in
    the original graph: that is exactly the net outflow v must produce in
    the reversed graph once f' = m - f is substituted into conservation.
    Positive-supply nodes hang off the super source, negative ones feed the
    super sink. f = 0 maps to f' = m, so the problem is always feasible.
    """
    nodes = instance.nodes + (SUPER_SOURCE, SUPER_SINK)
    arcs = [Arc(dst, src, capacity, weight) for src, dst, capacity, weight in instance.edges]
    supply = {v: 0 for v in nodes}
    for src, dst, capacity, _ in instance.edges:
        supply[dst] += capacity
        supply[src] -= capacity
    for v in instance.nodes:
        b = supply[v]
        if b > 0:
            arcs.append(Arc(SUPER_SOURCE, v, b, 0))
        elif b < 0:
            arcs.append(Arc(v, SUPER_SINK, -b, 0))
    return MinCostFlowProblem(
        nodes=nodes,
        arcs=tuple(arcs),
        supplies=tuple(supply[v] for v in nodes),
    )


class FlowResult(NamedTuple):
    arc_flows: tuple[int, ...]
    iterations: int


def solve_min_cost_flow(problem: MinCostFlowProblem) -> FlowResult:
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

    ``iterations`` counts the augmenting paths the blocking flows push.
    Exact integer arithmetic throughout; deterministic given the arc
    order (heap ties break on node index, the DFS follows arc order).
    """
    if sum(problem.supplies) != 0:
        raise SolverError("supplies do not sum to zero")
    for arc_src, arc_dst, _, arc_cost in problem.arcs:
        if arc_cost < 0:
            raise SolverError(f"negative cost on arc {arc_src}->{arc_dst}")

    index = {v: i for i, v in enumerate(problem.nodes)}
    n = len(problem.nodes)
    # Residual arcs as parallel lists: forward arc 2i, backward arc 2i+1.
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for arc_src, arc_dst, arc_capacity, arc_cost in problem.arcs:
        u, v = index[arc_src], index[arc_dst]
        adj[u].append(len(to))
        to.append(v)
        cap.append(arc_capacity)
        cost.append(arc_cost)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-arc_cost)

    src = index[SUPER_SOURCE]
    snk = index[SUPER_SINK]
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

    # Flow on problem arc i is what accumulated on its residual backward arc.
    arc_flows = tuple(cap[2 * i + 1] for i in range(len(problem.arcs)))
    return FlowResult(arc_flows=arc_flows, iterations=iterations)


def checked_output(circ: Circulation, what: str) -> Circulation:
    """Validate a circulation an engine computed; failure is an engine bug."""
    try:
        circ.validate()
    except ModelError as exc:
        raise SolverError(f"{what} is not a circulation: {exc}") from exc
    return circ


def recover_circulation(
    instance: RebalancingInstance,
    problem: MinCostFlowProblem,
    flow: FlowResult,
) -> Circulation:
    """Invert the change of variables: f(u,v) = m(u,v) - f'(v,u)."""
    # zip stops at the last edge; the super arcs follow the edges' arcs.
    flows = tuple(e.capacity - f for e, f in zip(instance.edges, flow.arc_flows))
    return checked_output(Circulation(instance, flows), "recovered flow")


# ---------------------------------------------------------------------------
# Bounded mode: gain-cycle canceling on the original graph.
# ---------------------------------------------------------------------------


def lockstep_arcs(n: int) -> Iterator[tuple[int, int, tuple[int, int], bool]]:
    """Candidate residual arcs as (tail, head, edge pair, forward).

    Ordered node pairs come in lexicographic order; pair (u, v) hosts the
    forward residual of edge (u, v), then the backward residual of edge
    (v, u), both traversed u -> v. The oblivious solver walks them all;
    the plaintext canceler walks the arcs whose edge exists in the same
    order (``residual_arcs``), so the two engines stay in lockstep round
    for round.
    """
    for u in range(n):
        for v in range(n):
            if u != v:
                yield u, v, (u, v), True
                yield u, v, (v, u), False


class ResidualArc(NamedTuple):
    tail: int
    head: int
    edge_index: int
    forward: bool  # False: traversing against the edge (undoing flow)


def residual_arcs(instance: RebalancingInstance) -> tuple[ResidualArc, ...]:
    """The 2m real residual arcs, in ``lockstep_arcs`` order.

    Each edge (u, v) gives a forward arc u -> v and a backward arc v -> u.
    Sorting by (tail, head, backward) is the order ``lockstep_arcs`` walks
    the n(n-1) node pairs in, with the arcs of absent edges left out.
    """
    idx = instance.node_index()
    arcs = []
    for i, e in enumerate(instance.edges):
        u, v = idx[e.src], idx[e.dst]
        arcs.append(ResidualArc(u, v, i, True))
        arcs.append(ResidualArc(v, u, i, False))
    arcs.sort(key=lambda a: (a.tail, a.head, not a.forward))
    return tuple(arcs)


def find_gain_cycle(
    instance: RebalancingInstance,
    arcs: tuple[ResidualArc, ...],
    flows: list[int],
) -> list[ResidualArc] | None:
    """One Bellman-Ford sweep for a positive-gain residual cycle.

    A feasible circulation is optimal exactly when none exists (Ahuja,
    Magnanti and Orlin, *Network Flows*, Thm 9.1), so ``None`` certifies
    ``flows``: the bounded canceler stops on it and ``verify`` checks it.
    Distances start at zero everywhere (a virtual source), costs are the
    negated gains of the arcs with residual >= 1. After n+1 relaxation
    passes only a negative-cost (positive-gain) cycle can still produce
    updates, so any relaxation in the final pass betrays one; walking n
    predecessor steps back from the first head relaxed there lands on that
    cycle. A pass that relaxes nothing ends the sweep: no later pass could.
    """
    n = instance.n
    live = []
    for a in arcs:
        e = instance.edges[a.edge_index]
        f = flows[a.edge_index]
        if a.forward:
            if e.capacity - f >= 1:
                live.append((a.tail, a.head, -e.weight, a))
        elif f >= 1:
            live.append((a.tail, a.head, e.weight, a))
    dist = [0] * n
    pred: list[ResidualArc | None] = [None] * n
    for _ in range(n + 2):
        start = None  # the first head this pass relaxes
        for tail, head, cost, a in live:
            cand = dist[tail] + cost
            if cand < dist[head]:
                dist[head] = cand
                pred[head] = a
                if start is None:
                    start = head
        if start is None:
            return None

    cur = start
    for _ in range(n):  # walk onto the predecessor cycle
        a = pred[cur]
        if a is None:
            raise SolverError("broken predecessor chain during extraction")
        cur = a.tail
    cycle: list[ResidualArc] = []
    anchor = cur
    while True:
        a = pred[cur]
        if a is None:
            raise SolverError("broken predecessor chain during extraction")
        cycle.append(a)
        cur = a.tail
        if cur == anchor:
            break
    cycle.reverse()
    return cycle


def _cancel_cycles(
    instance: RebalancingInstance, bound: int
) -> tuple[Circulation, int, bool]:
    arcs = residual_arcs(instance)
    flows = [0] * instance.m
    iterations = 0
    while iterations < bound:
        cycle = find_gain_cycle(instance, arcs, flows)
        if cycle is None:
            return Circulation(instance, tuple(flows)), iterations, False
        push = min(
            instance.edges[a.edge_index].capacity - flows[a.edge_index]
            if a.forward
            else flows[a.edge_index]
            for a in cycle
        )
        for a in cycle:
            flows[a.edge_index] += push if a.forward else -push
        iterations += 1
    exhausted = find_gain_cycle(instance, arcs, flows) is not None
    return Circulation(instance, tuple(flows)), iterations, exhausted


def solve_rebalancing(
    instance: RebalancingInstance,
    iteration_bound: int | None = None,
    span: Callable[[str], ContextManager] = contextlib.nullcontext,
) -> SolveReport:
    """Compute a maximum-value rebalancing circulation.

    With no bound the reduction + primal-dual min-cost flow runs to
    optimality, and ``iterations`` counts the augmenting paths its
    blocking flows pushed. With ``iteration_bound=k`` at most k cycle
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
        return SolveReport(
            circulation=circ,
            objective=circ.objective(),
            iterations=flow.iterations,
            terminated_early=False,
        )
    if iteration_bound < 0:
        raise ModelError(f"iteration bound must be non-negative, got {iteration_bound}")
    with span("solver.cancel"):
        circ, iters, early = _cancel_cycles(instance, iteration_bound)
    checked_output(circ, "bounded canceler output")
    return SolveReport(
        circulation=circ,
        objective=circ.objective(),
        iterations=iters,
        terminated_early=early,
    )


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

