"""Exact rebalancing solver.

The maximum-value rebalancing is found by a change of variables that turns
the circulation problem into a min-cost flow problem on the reversed graph
(f'(v,u) = m(u,v) - f(u,v)), solved with successive shortest paths and
node potentials. Costs in the reduced problem equal the edge weights, so
they are non-negative and Dijkstra needs no negative-edge handling.

Bounded runs (``iteration_bound``) use a different engine: deterministic
canceling of gain cycles in the residual graph of the original problem.
Every iterate there is a feasible circulation and the objective only ever
grows, so stopping after k rounds yields a usable partial rebalancing.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterator

from .model import ModelError, NodeId, RebalancingInstance

SUPER_SOURCE = "__source__"
SUPER_SINK = "__sink__"


class SolverError(RuntimeError):
    pass


class MalformedProblem(SolverError):
    """Reduced problem violates its own invariants (supply imbalance)."""


class InternalInconsistency(SolverError):
    """A recovered flow failed validation; indicates a solver bug."""


class InvalidCirculation(ValueError):
    """Flow vector violates conservation, capacity or integrality."""


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    capacity: int
    cost: int


@dataclass(frozen=True)
class MinCostFlowProblem:
    """Reversed-graph flow problem produced by the reduction.

    ``arcs[i]`` for i < m is the reversal of ``instance.edges[i]``; super
    arcs follow. ``supplies`` holds the per-node imbalance b(v) aligned
    with ``nodes`` (super source/sink carry 0, their role is encoded by
    the super arcs).
    """

    nodes: tuple[str, ...]
    arcs: tuple[Arc, ...]
    supplies: tuple[int, ...]


@dataclass(frozen=True)
class Circulation:
    """Integral edge flows with zero net flow at every node."""

    instance: RebalancingInstance
    flows: tuple[int, ...]

    def flow_of(self, src: NodeId, dst: NodeId) -> int:
        for e, f in zip(self.instance.edges, self.flows):
            if e.src == src and e.dst == dst:
                return f
        return 0

    def objective(self) -> int:
        return sum(e.weight * f for e, f in zip(self.instance.edges, self.flows))

    def validate(self) -> None:
        inst = self.instance
        if len(self.flows) != inst.m:
            raise InvalidCirculation("flow vector length does not match edge count")
        net: dict[NodeId, int] = {v: 0 for v in inst.nodes}
        for e, f in zip(inst.edges, self.flows):
            if not isinstance(f, int):
                raise InvalidCirculation(f"non-integral flow on {e.src}->{e.dst}")
            if not 0 <= f <= e.capacity:
                raise InvalidCirculation(
                    f"flow {f} on {e.src}->{e.dst} outside [0, {e.capacity}]"
                )
            net[e.dst] += f
            net[e.src] -= f
        for v, d in net.items():
            if d != 0:
                raise InvalidCirculation(f"conservation violated at {v} (net {d})")


def zero_circulation(instance: RebalancingInstance) -> Circulation:
    return Circulation(instance, (0,) * instance.m)


@dataclass(frozen=True)
class SolveReport:
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
    arcs = [Arc(e.dst, e.src, e.capacity, e.weight) for e in instance.edges]
    supply = {v: 0 for v in nodes}
    for e in instance.edges:
        supply[e.dst] += e.capacity
        supply[e.src] -= e.capacity
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


@dataclass(frozen=True)
class FlowResult:
    arc_flows: tuple[int, ...]
    cost: int
    iterations: int


def solve_min_cost_flow(problem: MinCostFlowProblem) -> FlowResult:
    """Successive shortest paths with Dijkstra and Johnson potentials.

    Routes all supply from the super source at minimum cost. Exact integer
    arithmetic throughout; deterministic given the arc order (heap ties
    break on node index).
    """
    if sum(problem.supplies) != 0:
        raise MalformedProblem("supplies do not sum to zero")
    for arc in problem.arcs:
        if arc.cost < 0:
            raise MalformedProblem(f"negative cost on arc {arc.src}->{arc.dst}")

    index = {v: i for i, v in enumerate(problem.nodes)}
    n = len(problem.nodes)
    # Residual arcs as parallel lists: forward arc 2i, backward arc 2i+1.
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for arc in problem.arcs:
        u, v = index[arc.src], index[arc.dst]
        adj[u].append(len(to))
        to.append(v)
        cap.append(arc.capacity)
        cost.append(arc.cost)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-arc.cost)

    src = index[SUPER_SOURCE]
    snk = index[SUPER_SINK]
    potential = [0] * n
    total_cost = 0
    iterations = 0
    INF = float("inf")

    while True:
        dist: list[float] = [INF] * n
        prev_arc = [-1] * n
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
                    prev_arc[v] = a
                    heapq.heappush(heap, (nd, v))
        if dist[snk] == INF:
            break
        for v in range(n):
            if dist[v] < INF:
                potential[v] += int(dist[v])

        bottleneck = None
        v = snk
        while v != src:
            a = prev_arc[v]
            if bottleneck is None or cap[a] < bottleneck:
                bottleneck = cap[a]
            v = to[a ^ 1]
        assert bottleneck is not None and bottleneck > 0
        v = snk
        while v != src:
            a = prev_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            total_cost += bottleneck * cost[a]
            v = to[a ^ 1]
        iterations += 1

    # Flow on problem arc i is what accumulated on its residual backward arc.
    arc_flows = tuple(cap[2 * i + 1] for i in range(len(problem.arcs)))
    return FlowResult(arc_flows=arc_flows, cost=total_cost, iterations=iterations)


def recover_circulation(
    instance: RebalancingInstance,
    problem: MinCostFlowProblem,
    flow: FlowResult,
) -> Circulation:
    """Invert the change of variables: f(u,v) = m(u,v) - f'(v,u)."""
    flows = tuple(
        e.capacity - flow.arc_flows[i] for i, e in enumerate(instance.edges)
    )
    circ = Circulation(instance, flows)
    try:
        circ.validate()
    except InvalidCirculation as exc:
        raise InternalInconsistency(f"recovered flow is not a circulation: {exc}") from exc
    return circ


# ---------------------------------------------------------------------------
# Bounded mode: gain-cycle canceling on the original graph.
# ---------------------------------------------------------------------------


def lockstep_arcs(n: int) -> Iterator[tuple[int, int, tuple[int, int], bool]]:
    """Candidate residual arcs as (tail, head, edge pair, forward).

    Ordered node pairs come in lexicographic order; pair (u, v) hosts the
    forward residual of edge (u, v), then the backward residual of edge
    (v, u), both traversed u -> v. The plaintext canceler keeps the arcs
    whose edge exists and the oblivious solver keeps them all, so the two
    engines stay in lockstep round for round.
    """
    for u in range(n):
        for v in range(n):
            if u != v:
                yield u, v, (u, v), True
                yield u, v, (v, u), False


@dataclass(frozen=True)
class ResidualArc:
    tail: int
    head: int
    edge_index: int
    forward: bool  # False: traversing against the edge (undoing flow)


def residual_arcs(instance: RebalancingInstance) -> tuple[ResidualArc, ...]:
    idx = instance.node_index()
    by_pair = {(idx[e.src], idx[e.dst]): i for i, e in enumerate(instance.edges)}
    return tuple(
        ResidualArc(u, v, by_pair[pair], forward)
        for u, v, pair, forward in lockstep_arcs(instance.n)
        if pair in by_pair
    )


def _find_gain_cycle(
    instance: RebalancingInstance,
    arcs: tuple[ResidualArc, ...],
    flows: list[int],
) -> list[ResidualArc] | None:
    """One Bellman-Ford sweep for a positive-gain residual cycle.

    Distances start at zero everywhere (a virtual source), costs are the
    negated gains. After n+1 relaxation passes only a negative-cost
    (positive-gain) cycle can still produce updates, so any relaxation in
    the final pass betrays one; walking n predecessor steps back from the
    first head relaxed there lands on that cycle.
    """
    n = instance.n
    edges = instance.edges
    dist = [0] * n
    pred: list[ResidualArc | None] = [None] * n
    start = None
    for pass_no in range(n + 2):
        final = pass_no == n + 1
        for a in arcs:
            f = flows[a.edge_index]
            residual = edges[a.edge_index].capacity - f if a.forward else f
            if residual < 1:
                continue
            w = edges[a.edge_index].weight
            cand = dist[a.tail] + (-w if a.forward else w)
            if cand < dist[a.head]:
                dist[a.head] = cand
                pred[a.head] = a
                if final and start is None:
                    start = a.head
    if start is None:
        return None

    cur = start
    for _ in range(n):  # walk onto the predecessor cycle
        a = pred[cur]
        if a is None:
            raise InternalInconsistency("broken predecessor chain during extraction")
        cur = a.tail
    cycle: list[ResidualArc] = []
    anchor = cur
    while True:
        a = pred[cur]
        if a is None:
            raise InternalInconsistency("broken predecessor chain during extraction")
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
        cycle = _find_gain_cycle(instance, arcs, flows)
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
    exhausted = _find_gain_cycle(instance, arcs, flows) is not None
    return Circulation(instance, tuple(flows)), iterations, exhausted


def solve_rebalancing(
    instance: RebalancingInstance, iteration_bound: int | None = None
) -> SolveReport:
    """Compute a maximum-value rebalancing circulation.

    With no bound the reduction + successive-shortest-paths engine runs to
    optimality. With ``iteration_bound=k`` at most k cycle cancellations
    are performed; the result is always a feasible circulation and its
    objective is nondecreasing in k (k=0 yields the zero circulation).
    """
    if iteration_bound is None:
        problem = reduce_to_min_cost_flow(instance)
        flow = solve_min_cost_flow(problem)
        circ = recover_circulation(instance, problem, flow)
        return SolveReport(
            circulation=circ,
            objective=circ.objective(),
            iterations=flow.iterations,
            terminated_early=False,
        )
    if iteration_bound < 0:
        raise ModelError(f"iteration bound must be non-negative, got {iteration_bound}")
    circ, iters, early = _cancel_cycles(instance, iteration_bound)
    circ.validate()
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


def circulation_from_json_dict(data: dict, instance: RebalancingInstance) -> Circulation:
    if not isinstance(data, dict) or set(data) - {"flows", "objective"}:
        raise ModelError("malformed circulation document")
    if "flows" not in data:
        raise ModelError("circulation document needs a flows list")
    amounts = {}
    for raw in data["flows"]:
        if not isinstance(raw, dict) or set(raw) != {"from", "to", "amount"}:
            raise ModelError("malformed flow entry")
        amounts[(raw["from"], raw["to"])] = raw["amount"]
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


def dump_circulation(circ: Circulation) -> str:
    return json.dumps(circulation_to_json_dict(circ), indent=2) + "\n"
