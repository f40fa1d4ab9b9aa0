import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import random_small_instance
from pcnflow.cli import generate_instance
from pcnflow.model import ChannelConstraint, ModelError, build_instance
from pcnflow.oracle import enumerate_best_circulation, max_circulation_objective
from pcnflow.solver import (
    SUPER_SINK,
    SUPER_SOURCE,
    Arc,
    Circulation,
    MinCostFlowProblem,
    SolverError,
    circulation_from_json_dict,
    circulation_to_json_dict,
    ResidualArc,
    recover_circulation,
    find_gain_cycle,
    lockstep_arcs,
    reduce_to_min_cost_flow,
    residual_arcs,
    solve_min_cost_flow,
    solve_rebalancing,
)


def flow_cost(problem, result) -> int:
    """Sum of flow times cost over the problem's arcs."""
    return sum(f * arc.cost for f, arc in zip(result.arc_flows, problem.arcs))


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
        problem = reduce_to_min_cost_flow(single_edge())
        assert problem.arcs[0] == Arc("B", "A", 3, 1)
        supplies = dict(zip(problem.nodes, problem.supplies))
        # B must push 3 units net in the reversed graph, A absorb them.
        assert supplies["A"] == -3 and supplies["B"] == 3
        assert Arc(SUPER_SOURCE, "B", 3, 0) in problem.arcs
        assert Arc("A", SUPER_SINK, 3, 0) in problem.arcs

    def test_triangle_needs_no_super_arcs(self):
        problem = reduce_to_min_cost_flow(triangle())
        assert all(s == 0 for s in problem.supplies)
        assert len(problem.arcs) == 3

    def test_two_edge_path_supplies(self):
        inst = build_instance(
            ["A", "B", "C"],
            [ChannelConstraint("A", "B", 2), ChannelConstraint("B", "C", 5)],
        )
        problem = reduce_to_min_cost_flow(inst)
        supplies = dict(zip(problem.nodes, problem.supplies))
        # Hand evaluation of incoming-minus-outgoing capacity per node.
        assert supplies == {"A": -2, "B": -3, "C": 5, SUPER_SOURCE: 0, SUPER_SINK: 0}

    def test_supplies_always_balance(self):
        for seed in range(30):
            problem = reduce_to_min_cost_flow(random_small_instance(seed))
            assert sum(problem.supplies) == 0

    def test_reversed_arc_carries_weight_as_cost(self):
        inst = build_instance(["A", "B"], [ChannelConstraint("A", "B", 3, weight=7)])
        problem = reduce_to_min_cost_flow(inst)
        assert problem.arcs[0] == Arc("B", "A", 3, 7)


class TestMinCostFlow:
    def test_single_edge_routing(self):
        inst = single_edge()
        problem = reduce_to_min_cost_flow(inst)
        result = solve_min_cost_flow(problem)
        assert result.arc_flows[0] == 3  # the lone reversed arc carries all supply
        assert flow_cost(problem, result) == 3

    def test_zero_supply_zero_flow(self):
        problem = reduce_to_min_cost_flow(triangle())
        result = solve_min_cost_flow(problem)
        # Costs are positive, supplies are zero: cheapest b-flow is empty.
        assert result.arc_flows == (0, 0, 0)
        assert flow_cost(problem, result) == 0

    def test_supply_imbalance_rejected(self):
        problem = MinCostFlowProblem(
            nodes=("A", "B", SUPER_SOURCE, SUPER_SINK),
            arcs=(Arc("A", "B", 1, 0),),
            supplies=(1, 0, 0, 0),
        )
        with pytest.raises(SolverError, match="^supplies do not sum to zero$"):
            solve_min_cost_flow(problem)

    def test_negative_cost_rejected(self):
        problem = MinCostFlowProblem(
            nodes=("A", "B", SUPER_SOURCE, SUPER_SINK),
            arcs=(Arc("A", "B", 1, -1),),
            supplies=(0, 0, 0, 0),
        )
        with pytest.raises(SolverError, match="^negative cost on arc A->B$"):
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
        flows = list(solve_rebalancing(inst).circulation.flows)
        assert find_gain_cycle(inst, residual_arcs(inst), flows) is None

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
        # and keep the arcs whose edge exists.
        idx = inst.node_index()
        by_pair = {(idx[e.src], idx[e.dst]): i for i, e in enumerate(inst.edges)}
        return tuple(
            ResidualArc(u, v, by_pair[pair], forward)
            for u, v, pair, forward in lockstep_arcs(inst.n)
            if pair in by_pair
        )

    @given(st.integers(0, 10**6), st.booleans())
    def test_equals_filtered_lockstep_walk(self, seed, dense):
        inst = random_small_instance(seed, max_nodes=9, max_edges=30, dense=dense)
        arcs = residual_arcs(inst)
        assert len(arcs) == 2 * inst.m
        assert arcs == self.filtered_walk(inst)

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


def _reference_find_gain_cycle(instance, arcs, flows):
    """The specification of ``find_gain_cycle``: all n+2 passes over every
    arc, each arc's residual and cost worked out where it is relaxed."""
    n = instance.n
    capacity = [e.capacity for e in instance.edges]
    weight = [e.weight for e in instance.edges]
    dist = [0] * n
    pred = [None] * n
    start = None
    for pass_no in range(n + 2):
        final = pass_no == n + 1
        for a in arcs:
            tail, head, i, forward = a
            f = flows[i]
            residual = capacity[i] - f if forward else f
            if residual < 1:
                continue
            cand = dist[tail] + (-weight[i] if forward else weight[i])
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
        cur = a.tail
    cycle = []
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
        arcs = residual_arcs(inst)
        assert find_gain_cycle(inst, arcs, flows) == _reference_find_gain_cycle(inst, arcs, flows)

    def test_certifies_exactly_the_oracle_optimum(self):
        # 300 desk instances, each at bounds 0-3: the search finds a cycle
        # exactly when the objective is below the exhaustive optimum.
        seen = set()
        for seed in range(300):
            inst = random_small_instance(seed, weight_max=(0, 1, 3)[seed % 3])
            best = max_circulation_objective(inst)
            arcs = residual_arcs(inst)
            for bound in range(4):
                report = solve_rebalancing(inst, iteration_bound=bound)
                certified = find_gain_cycle(inst, arcs, list(report.circulation.flows)) is None
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
