import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import random_small_instance
from pcnflow.cli import generate_instance
from pcnflow.model import ChannelConstraint, ModelError, build_instance
from pcnflow.oracle import enumerate_best_circulation, max_circulation_objective
from pcnflow.solver import (
    Circulation,
    FlowResult,
    ResidualNetwork,
    SolverError,
    circulation_from_json_dict,
    circulation_to_json_dict,
    recover_circulation,
    find_gain_cycle,
    lockstep_arcs,
    lockstep_order,
    reduce_to_min_cost_flow,
    residual_network,
    solve_min_cost_flow,
    solve_rebalancing,
)


def arc(net, a):
    """Arc a of ``net`` as (tail, head, residual, cost)."""
    return net.to[a ^ 1], net.to[a], net.cap[a], net.cost[a]


def supplies(net, inst):
    """Each node's super-arc residual: + off the super source, - to the sink."""
    n = inst.n
    b = {v: 0 for v in inst.nodes}
    for a in range(2 * inst.m, len(net.to), 2):
        tail, head, residual, _ = arc(net, a)
        if tail == n:
            b[inst.nodes[head]] += residual
        else:
            assert head == n + 1
            b[inst.nodes[tail]] -= residual
    return b


def flow_cost(problem, result) -> int:
    """Cost of the reversed problem's flow: what left each arc's residual
    times that arc's cost."""
    return sum(
        (problem.cap[a] - result.cap[a]) * problem.cost[a] for a in range(0, len(problem.to), 2)
    )


def single_edge():
    return build_instance(["A", "B"], [ChannelConstraint("A", "B", 3)])


def triangle(caps=(4, 4, 4), weights=(1, 1, 1)):
    return build_instance(
        ["A", "B", "C"],
        [
            ChannelConstraint("A", "B", caps[0], weights[0]),
            ChannelConstraint("B", "C", caps[1], weights[1]),
            ChannelConstraint("C", "A", caps[2], weights[2]),
        ],
    )


class TestReduction:
    def test_single_edge_reverses(self):
        inst = single_edge()
        problem = reduce_to_min_cost_flow(inst)
        assert arc(problem, 0) == (1, 0, 3, 1)  # B -> A, all of A->B's capacity
        # B must push 3 units net in the reversed graph, A absorb them.
        assert supplies(problem, inst) == {"A": -3, "B": 3}
        # Super arcs follow the edges in node order.
        assert arc(problem, 2) == (0, 3, 3, 0)  # A -> super sink
        assert arc(problem, 4) == (2, 1, 3, 0)  # super source -> B

    def test_triangle_needs_no_super_arcs(self):
        inst = triangle()
        problem = reduce_to_min_cost_flow(inst)
        assert supplies(problem, inst) == {"A": 0, "B": 0, "C": 0}
        assert len(problem.to) == 2 * 3

    def test_two_edge_path_supplies(self):
        inst = build_instance(
            ["A", "B", "C"],
            [ChannelConstraint("A", "B", 2), ChannelConstraint("B", "C", 5)],
        )
        problem = reduce_to_min_cost_flow(inst)
        # Hand evaluation of incoming-minus-outgoing capacity per node.
        assert supplies(problem, inst) == {"A": -2, "B": -3, "C": 5}

    def test_supplies_always_balance(self):
        for seed in range(30):
            inst = random_small_instance(seed)
            assert sum(supplies(reduce_to_min_cost_flow(inst), inst).values()) == 0

    def test_reversed_arc_carries_weight_as_cost(self):
        inst = build_instance(["A", "B"], [ChannelConstraint("A", "B", 3, weight=7)])
        problem = reduce_to_min_cost_flow(inst)
        assert arc(problem, 0) == (1, 0, 3, 7)
        assert arc(problem, 1) == (0, 1, 0, -7)

    def test_network_under_given_flows(self):
        inst = triangle(caps=(4, 5, 6), weights=(1, 2, 3))
        # A circulation leaves every node balanced: edge arcs only.
        net = residual_network(inst, (1, 1, 1))
        assert [arc(net, a) for a in range(len(net.to))] == [
            (1, 0, 1, 1), (0, 1, 3, -1),
            (2, 1, 1, 2), (1, 2, 4, -2),
            (0, 2, 1, 3), (2, 0, 5, -3),
        ]
        assert [len(out) for out in net.adj] == [2, 2, 2, 0, 0]
        # 2 units on A->B alone: B takes them in, A sends them out.
        net = residual_network(inst, (2, 0, 0))
        assert supplies(net, inst) == {"A": -2, "B": 2, "C": 0}
        assert arc(net, 9) == (1, 3, 0, 0)  # the super source's arc into B, reversed


class TestMinCostFlow:
    def test_single_edge_routing(self):
        inst = single_edge()
        problem = reduce_to_min_cost_flow(inst)
        result = solve_min_cost_flow(problem)
        # The lone reversed arc carries all supply: its residual is spent.
        assert result.cap[:2] == [0, 3]
        assert flow_cost(problem, result) == 3

    def test_zero_supply_zero_flow(self):
        problem = reduce_to_min_cost_flow(triangle())
        result = solve_min_cost_flow(problem)
        # Costs are positive, supplies are zero: cheapest b-flow is empty.
        assert result.cap == problem.cap
        assert flow_cost(problem, result) == 0

    def test_solves_a_copy(self):
        problem = reduce_to_min_cost_flow(single_edge())
        before = list(problem.cap)
        assert solve_min_cost_flow(problem).cap != before
        assert problem.cap == before

    def test_negative_cost_rejected(self):
        problem = ResidualNetwork(to=[1, 0], cap=[1, 0], cost=[-1, 1], adj=[[0], [1], [], []])
        with pytest.raises(SolverError, match="^negative cost on arc 0->1$"):
            solve_min_cost_flow(problem)

    def test_cost_is_dual_to_oracle_objective(self):
        # The change of variables gives objective = sum(w*cap) - min cost,
        # so the exhaustive oracle pins the min cost exactly.
        for seed in range(25):
            inst = random_small_instance(seed, max_nodes=4, weight_max=2)
            problem = reduce_to_min_cost_flow(inst)
            result = solve_min_cost_flow(problem)
            total = sum(e.weight * e.capacity for e in inst.edges)
            assert flow_cost(problem, result) == total - max_circulation_objective(inst)


class TestRecover:
    def test_single_edge_recovers_zero(self):
        inst = single_edge()
        problem = reduce_to_min_cost_flow(inst)
        circ = recover_circulation(inst, problem, solve_min_cost_flow(problem))
        assert circ.flows == (0,)

    def test_triangle_recovers_saturation(self):
        inst = triangle()
        problem = reduce_to_min_cost_flow(inst)
        circ = recover_circulation(inst, problem, solve_min_cost_flow(problem))
        assert circ.flows == (4, 4, 4)

    def test_round_trip_validates(self):
        for seed in range(40):
            inst = random_small_instance(seed)
            problem = reduce_to_min_cost_flow(inst)
            circ = recover_circulation(inst, problem, solve_min_cost_flow(problem))
            circ.validate()  # raises on any violation

    def test_suboptimal_flow_refused(self):
        # Residuals of the zero circulation: feasible, but the triangle's
        # cycle still gains 3 per unit.
        inst = triangle()
        flow = FlowResult(residual_network(inst, (0, 0, 0)).cap, 0)
        with pytest.raises(SolverError, match="^recovered flow is not optimal"):
            recover_circulation(inst, reduce_to_min_cost_flow(inst), flow)


class TestSolveRebalancing:
    def test_triangle_saturates(self):
        report = solve_rebalancing(triangle())
        assert report.objective == 12
        assert report.circulation.flows == (4, 4, 4)
        assert not report.terminated_early

    def test_dag_yields_zero(self):
        inst = build_instance(
            ["A", "B", "C", "D"],
            [
                ChannelConstraint("A", "B", 3),
                ChannelConstraint("A", "C", 2),
                ChannelConstraint("B", "D", 1),
                ChannelConstraint("C", "D", 5),
            ],
        )
        report = solve_rebalancing(inst)
        assert report.objective == 0
        assert report.circulation == Circulation(inst, (0,) * inst.m)

    def test_two_triangles_sharing_edge_match_oracle(self):
        inst = build_instance(
            ["A", "B", "C", "D"],
            [
                ChannelConstraint("A", "B", 5),
                ChannelConstraint("B", "C", 3),
                ChannelConstraint("C", "A", 3),
                ChannelConstraint("B", "D", 2),
                ChannelConstraint("D", "A", 2),
            ],
        )
        report = solve_rebalancing(inst)
        assert report.objective == max_circulation_objective(inst)
        assert report.objective == 15

    def test_weighted_triangle_scales_objective(self):
        big_weight = 9
        inst = triangle(weights=(big_weight, 1, 0))
        report = solve_rebalancing(inst)
        assert report.circulation.flows == (4, 4, 4)
        assert report.objective == 4 * (big_weight + 1)

    def test_zero_weight_edges_may_carry_flow(self):
        inst = triangle(weights=(5, 1, 0))
        report = solve_rebalancing(inst)
        assert report.circulation.flows[2] == 4  # C->A

    def test_matches_oracle_on_random_instances(self):
        for seed in range(60):
            inst = random_small_instance(seed, weight_max=3)
            assert solve_rebalancing(inst).objective == max_circulation_objective(inst)

    def test_oracle_flows_are_feasible(self):
        for seed in range(20):
            inst = random_small_instance(seed, dense=True)
            obj, flows = enumerate_best_circulation(inst)
            circ = Circulation(inst, flows)
            circ.validate()
            assert circ.objective() == obj

    def test_deterministic(self):
        inst = random_small_instance(123, dense=True)
        assert solve_rebalancing(inst) == solve_rebalancing(inst)


class TestBeyondOracle:
    """Sizes the exhaustive oracle cannot reach."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_canceler_run_to_exhaustion(self, seed):
        inst = generate_instance(40, 120, 2**10, 4, seed)
        exhausted = solve_rebalancing(inst, iteration_bound=10**6)
        assert not exhausted.terminated_early
        assert solve_rebalancing(inst).objective == exhausted.objective

    @pytest.mark.parametrize(
        "n, m, w, seed, objective",
        [
            (500, 2000, 1, 1, 555369809),
            (500, 2000, 1, 2, 580950336),
            (500, 2000, 16, 3, 5412172515),
            (200, 800, 8, 5, 1044650876),
        ],
    )
    def test_pinned_objectives(self, n, m, w, seed, objective):
        # Optima found by single-path successive shortest paths, an engine
        # independent of the primal-dual method.
        assert solve_rebalancing(generate_instance(n, m, 2**20, w, seed)).objective == objective

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_no_gain_cycle_remains(self, seed):
        inst = generate_instance(40, 120, 2**10, 4, seed)
        net = residual_network(inst, solve_rebalancing(inst).circulation.flows)
        assert find_gain_cycle(net, lockstep_order(net, inst.m), inst.n) is None

    def test_long_augmenting_path(self):
        # The only augmenting path runs the whole ring the long way round,
        # far deeper than the default recursion limit.
        n = 5000
        names = [f"v{i:04d}" for i in range(n)]
        inst = build_instance(
            names,
            [
                ChannelConstraint(names[i], names[(i + 1) % n], 3 if i == 0 else 7)
                for i in range(n)
            ],
        )
        report = solve_rebalancing(inst)
        assert report.objective == 3 * n
        assert report.circulation.flows == (3,) * n


class TestBoundedMode:
    def test_bound_zero_is_zero_circulation(self):
        report = solve_rebalancing(triangle(), iteration_bound=0)
        assert report.objective == 0
        assert report.iterations == 0
        assert report.terminated_early

    def test_monotone_in_bound(self):
        for seed in (3, 17, 41):
            inst = random_small_instance(seed, dense=True)
            previous = -1
            for k in range(0, 12):
                report = solve_rebalancing(inst, iteration_bound=k)
                assert report.objective >= previous
                previous = report.objective

    def test_reaches_optimum_when_unbounded_enough(self):
        for seed in range(25):
            inst = random_small_instance(seed, dense=True, weight_max=2)
            capped = solve_rebalancing(inst, iteration_bound=10_000)
            assert capped.objective == solve_rebalancing(inst).objective
            assert not capped.terminated_early

    def test_every_bounded_iterate_is_feasible(self):
        inst = random_small_instance(7, dense=True)
        for k in range(6):
            solve_rebalancing(inst, iteration_bound=k).circulation.validate()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            solve_rebalancing(triangle(), iteration_bound=-1)


class TestResidualArcs:
    """The plaintext canceler's 2m arcs, built from the edge list."""

    @staticmethod
    def filtered_walk(inst):
        # The dense construction: walk every node pair in lockstep order
        # and keep the arcs whose edge exists; edge i's forward residual is
        # arc 2i+1, its backward one arc 2i.
        idx = inst.node_index()
        by_pair = {(idx[e.src], idx[e.dst]): i for i, e in enumerate(inst.edges)}
        return [
            (u, v, 2 * by_pair[pair] + forward)
            for u, v, pair, forward in lockstep_arcs(inst.n)
            if pair in by_pair
        ]

    @given(st.integers(0, 10**6), st.booleans())
    def test_lockstep_order_equals_filtered_lockstep_walk(self, seed, dense):
        inst = random_small_instance(seed, max_nodes=9, max_edges=30, dense=dense)
        net = residual_network(inst, [0] * inst.m)
        order = lockstep_order(net, inst.m)
        assert len(order) == 2 * inst.m
        assert [(*arc(net, a)[:2], a) for a in order] == self.filtered_walk(inst)

    @pytest.mark.parametrize(
        "shape, bounded, exhausted",
        [
            ((12, 30, 8, 3, 1), (24, 3, True), (39, 6, False)),
            ((20, 60, 2**10, 4, 2), (5383, 3, True), (33393, 28, False)),
            ((40, 120, 2**10, 4, 3), (7529, 3, True), (69836, 62, False)),
        ],
    )
    def test_bounded_runs_unchanged(self, shape, bounded, exhausted):
        # (objective, iterations, terminated_early) of the canceler over the
        # dense arc walk, at bounds 3 and 10**6.
        inst = generate_instance(*shape)
        for bound, want in ((3, bounded), (10**6, exhausted)):
            r = solve_rebalancing(inst, iteration_bound=bound)
            assert (r.objective, r.iterations, r.terminated_early) == want


def _reference_find_gain_cycle(instance, order, flows):
    """The specification of ``find_gain_cycle``: all n+2 passes over the
    arcs ``order`` lists, each arc's ends, residual and cost worked out
    from the edge list where it is relaxed. Arc 2i+1 runs along edge i,
    arc 2i against it."""
    n = instance.n
    idx = instance.node_index()
    ends = [(idx[e.src], idx[e.dst]) for e in instance.edges]
    capacity = [e.capacity for e in instance.edges]
    weight = [e.weight for e in instance.edges]

    def tail(a):
        return ends[a // 2][1 - a % 2]

    dist = [0] * n
    pred = [None] * n
    start = None
    for pass_no in range(n + 2):
        final = pass_no == n + 1
        for a in order:
            i, forward = a // 2, a % 2 == 1
            f = flows[i]
            residual = capacity[i] - f if forward else f
            if residual < 1:
                continue
            head = ends[i][forward]
            cand = dist[tail(a)] + (-weight[i] if forward else weight[i])
            if cand < dist[head]:
                dist[head] = cand
                pred[head] = a
                if final and start is None:
                    start = head
    if start is None:
        return None
    cur = start
    for _ in range(n):
        a = pred[cur]
        if a is None:
            raise SolverError("broken predecessor chain during extraction")
        cur = tail(a)
    cycle = []
    anchor = cur
    while True:
        a = pred[cur]
        if a is None:
            raise SolverError("broken predecessor chain during extraction")
        cycle.append(a)
        cur = tail(a)
        if cur == anchor:
            break
    cycle.reverse()
    return cycle


class TestGainCycleDetection:
    @given(st.integers(0, 10**6), st.integers(-1, 6))
    def test_matches_reference(self, seed, bound):
        # bound -1: flows drawn at random within the capacities; otherwise
        # the bounded canceler's iterate after ``bound`` cancellations.
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        m = rng.randint(1, n * (n - 1) // 2)
        inst = generate_instance(n, m, cap_max=rng.choice((1, 3, 2**10)), weight_max=8, seed=seed)
        if bound < 0:
            flows = [rng.randint(0, e.capacity) for e in inst.edges]
        else:
            flows = list(solve_rebalancing(inst, iteration_bound=bound).circulation.flows)
        net = residual_network(inst, flows)
        order = lockstep_order(net, inst.m)
        assert find_gain_cycle(net, order, inst.n) == _reference_find_gain_cycle(inst, order, flows)

    def test_certifies_exactly_the_oracle_optimum(self):
        # 300 desk instances, each at bounds 0-3: the search finds a cycle
        # exactly when the objective is below the exhaustive optimum.
        seen = set()
        for seed in range(300):
            inst = random_small_instance(seed, weight_max=(0, 1, 3)[seed % 3])
            best = max_circulation_objective(inst)
            for bound in range(4):
                report = solve_rebalancing(inst, iteration_bound=bound)
                net = residual_network(inst, report.circulation.flows)
                certified = find_gain_cycle(net, lockstep_order(net, inst.m), inst.n) is None
                assert certified == (report.objective == best), (seed, bound)
                seen.add(certified)
        assert seen == {True, False}


class TestCirculationValidation:
    def test_capacity_violation_caught(self):
        inst = single_edge()
        with pytest.raises(ModelError, match=r"^flow 4 on A->B outside \[0, 3\]$"):
            Circulation(inst, (4,)).validate()

    def test_conservation_violation_caught(self):
        inst = single_edge()
        with pytest.raises(ModelError, match=r"^conservation violated at A \(net -2\)$"):
            Circulation(inst, (2,)).validate()

    @pytest.mark.parametrize(
        "flows, reason",
        [
            ((), "^flow vector length does not match edge count$"),
            ((3, 0), "^flow vector length does not match edge count$"),
            ((1.0,), "^non-integral flow on A->B$"),
        ],
    )
    def test_malformed_flow_vector_caught(self, flows, reason):
        with pytest.raises(ModelError, match=reason):
            Circulation(single_edge(), flows).validate()

    @given(st.integers(0, 400))
    def test_solver_output_always_validates(self, seed):
        inst = random_small_instance(seed)
        solve_rebalancing(inst).circulation.validate()


class TestCirculationJson:
    def test_round_trip(self):
        inst = triangle()
        circ = solve_rebalancing(inst).circulation
        doc = circulation_to_json_dict(circ)
        assert circulation_from_json_dict(doc, inst) == circ

    def test_field_order_is_stable(self):
        doc = circulation_to_json_dict(solve_rebalancing(triangle()).circulation)
        assert list(doc) == ["flows", "objective"]
        assert json.dumps(doc) == json.dumps(doc)

    def test_zero_flows_omitted(self):
        inst = single_edge()
        doc = circulation_to_json_dict(Circulation(inst, (0,) * inst.m))
        assert doc == {"flows": [], "objective": 0}

    def test_objective_mismatch_rejected(self):
        inst = triangle()
        doc = circulation_to_json_dict(solve_rebalancing(inst).circulation)
        doc["objective"] += 1
        with pytest.raises(ModelError):
            circulation_from_json_dict(doc, inst)

    def test_unknown_edge_rejected(self):
        inst = triangle()
        doc = {"flows": [{"from": "A", "to": "C", "amount": 1}], "objective": 1}
        with pytest.raises(ModelError):
            circulation_from_json_dict(doc, inst)

    def test_infeasible_flows_rejected(self):
        inst = triangle()
        doc = {"flows": [{"from": "A", "to": "B", "amount": 2}], "objective": 2}
        with pytest.raises(ModelError, match=r"^conservation violated at A \(net -2\)$"):
            circulation_from_json_dict(doc, inst)
