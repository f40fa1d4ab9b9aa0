"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
All comparisons are exact integer equality; the only tolerances anywhere
are the two wall-clock budgets, asserted as hard limits.
"""

import itertools
import json
import pathlib
import time

from conftest import random_small_instance
from test_execution import assert_matches_reference
from pcnflow.cli import generate_instance, main
from pcnflow.cycles import decompose, decomposition_reasons
from pcnflow.execution import (
    AdversarySpec,
    CycleStatus,
    Policy,
    executions_to_json_dict,
    make_execution,
    net_balance_delta,
    run_execution,
    setup_cycle_htlcs,
)
from pcnflow.model import ChannelConstraint, build_instance, load_instance
from pcnflow.mpc import MpcSession, default_schedule
from pcnflow.oracle import best_single_cycle, max_circulation_objective
from pcnflow.solver import solve_rebalancing

ROOT = pathlib.Path(__file__).resolve().parents[1]


def verdict(number: int, text: str) -> None:
    print(f"\ncriterion {number:02d} PASS — {text}")


def test_c01_optimality_oracle_equivalence_unit_weights():
    t0 = time.perf_counter()
    for seed in range(200):
        inst = random_small_instance(seed, cap_max=5, weight_max=1)
        got = solve_rebalancing(inst).objective
        want = max_circulation_objective(inst)
        assert got == want, (seed, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(1, f"200 unit-weight instances match the exhaustive oracle exactly ({elapsed:.2f}s)")


def test_c02_weighted_optimality():
    t0 = time.perf_counter()
    for seed in range(200):
        inst = random_small_instance(7000 + seed, cap_max=5, weight_max=4)
        got = solve_rebalancing(inst).objective
        want = max_circulation_objective(inst)
        assert got == want, (seed, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(2, f"200 weighted instances (weights <= 4) match the weighted oracle ({elapsed:.2f}s)")


def test_c03_decomposition_soundness():
    checked = 0
    for seed in range(100):
        inst = random_small_instance(3000 + seed, cap_max=5, weight_max=1, dense=True)
        circ = solve_rebalancing(inst).circulation
        dec = decompose(circ)
        assert decomposition_reasons(dec) == []
        assert len(dec.cycles) <= inst.m
        sums = {(e.src, e.dst): 0 for e in inst.edges}
        support = {(e.src, e.dst) for e, f in zip(inst.edges, circ.flows) if f > 0}
        for cycle in dec.cycles:
            assert len(set(cycle.vertices)) == len(cycle.vertices)  # simple
            assert cycle.weight >= 1
            for pair in cycle.edges():
                assert pair in support  # sign-consistent
                sums[pair] += cycle.weight
        for e, f in zip(inst.edges, circ.flows):
            assert sums[(e.src, e.dst)] == f  # exact edgewise equality
        checked += 1
    verdict(3, f"{checked} optimal circulations decompose exactly into simple sign-consistent cycles")


def _corruption_instance():
    """One 3-cycle and one 4-cycle sharing the A->B channel."""
    inst = build_instance(
        ["A", "B", "C", "D", "E"],
        [
            ChannelConstraint("A", "B", 5),
            ChannelConstraint("B", "C", 3),
            ChannelConstraint("C", "A", 3),
            ChannelConstraint("B", "D", 2),
            ChannelConstraint("D", "E", 2),
            ChannelConstraint("E", "A", 2),
        ],
    )
    dec = decompose(solve_rebalancing(inst).circulation)
    cycles = sorted(dec.cycles, key=lambda c: len(c.vertices))
    assert len(cycles) == 2
    assert len(cycles[0].vertices) == 3 and len(cycles[1].vertices) == 4
    shared = set(cycles[0].edges()) & set(cycles[1].edges())
    assert shared == {("A", "B")}
    return inst, cycles


def _enumerate_corruption_runs():
    inst, cycles = _corruption_instance()
    nodes = inst.nodes
    options = (None, Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY)
    for assignment in itertools.product(options, repeat=len(nodes)):
        adversary = AdversarySpec({v: p for v, p in zip(nodes, assignment) if p is not None})
        for init_a in cycles[0].vertices:
            for init_b in cycles[1].vertices:
                executions = [
                    make_execution(cycles[0], init_a, b"\x21" * 32),
                    make_execution(cycles[1], init_b, b"\x22" * 32),
                ]
                ledger = assert_matches_reference(executions, adversary)
                yield inst, adversary, executions, ledger, [ex.status for ex in executions]


def test_c04_balance_conservation_under_corruption():
    runs = 0
    for inst, _, _, ledger, _ in _enumerate_corruption_runs():
        # Each run matched the round-by-round reference, which raises
        # PartialCycle on any mixed outcome.
        for node in inst.nodes:
            assert net_balance_delta(ledger, node) == 0
        runs += 1
    assert runs == 3**5 * 3 * 4
    verdict(4, f"{runs} corruption runs: every node delta 0, no partial cycle")


def test_c05_uncorrupted_cycles_always_complete():
    runs = 0
    for _, adversary, executions, _, statuses in _enumerate_corruption_runs():
        for ex, status in zip(executions, statuses):
            # Every listed policy here is a misbehaving one.
            if not (set(ex.cycle.vertices) & adversary.policies.keys()):
                assert status is CycleStatus.COMPLETED
                runs += 1
    verdict(5, f"cycles with no corrupted member completed in all {runs} occurrences")


def _max_timelock(ex) -> int:
    return max(h["timelock"] for h in executions_to_json_dict([ex])[0]["htlcs"])


def test_c06_timelock_bound_equals_cycle_length():
    checked = 0
    for _, _, executions, _, _ in _enumerate_corruption_runs():
        for ex in executions:
            assert _max_timelock(ex) == len(ex.cycle.vertices)
            checked += 1
    for seed in range(50):
        inst = random_small_instance(5000 + seed, dense=True)
        cycles = decompose(solve_rebalancing(inst).circulation).cycles
        executions = [setup_cycle_htlcs(cycle, seed * 100 + i) for i, cycle in enumerate(cycles)]
        run_execution(executions)
        for ex in executions:
            assert _max_timelock(ex) == len(ex.cycle.vertices)
            checked += 1
    verdict(6, f"max timelock equals cycle length in all {checked} executions")


def test_c07_cancelling_out_scenario():
    instance = load_instance(str(ROOT / "scenarios" / "cancelling_out.json"))
    expected = json.loads(
        (ROOT / "scenarios" / "cancelling_out.expected.json").read_text()
    )
    report = solve_rebalancing(instance)
    single_obj, _, single_amount = best_single_cycle(instance)
    focal = (expected["focal_edge"]["from"], expected["focal_edge"]["to"])

    assert report.objective == expected["global_objective"] == 30
    assert single_obj == expected["best_single_cycle_objective"] == 18
    assert report.objective > single_obj
    flows = dict(zip(((e.src, e.dst) for e in instance.edges), report.circulation.flows))
    assert flows[focal] == expected["global_focal_flow"] == 10
    assert single_amount == expected["best_single_cycle_focal_flow"] == 6
    verdict(7, "global optimum 30 strictly beats best single cycle 18; focal channel moves 10 vs 6")


def test_c08_mpc_functional_equivalence_and_oblivious_transcripts():
    t0 = time.perf_counter()
    shapes = [(3, 3, 2, 1)] * 60 + [(4, 5, 2, 1)] * 25 + [(4, 4, 2, 2)] * 15
    for i, (n, m, cap_max, weight_max) in enumerate(shapes):
        inst = generate_instance(n, m, cap_max=cap_max, weight_max=weight_max, seed=900 + i)
        session = MpcSession(3, seed=i)
        shared = session.share_instance(inst)
        flows, _ = session.private_solve(shared, default_schedule(shared.public_shape()))
        got = session.reconstruct_circulation(flows, inst).objective()
        assert got == solve_rebalancing(inst).objective, (i, n, m)

    pairs = 0
    for i in range(20):
        a = generate_instance(3, 3, cap_max=3, weight_max=1, seed=100 + i)
        b = generate_instance(3, 3, cap_max=3, weight_max=1, seed=400 + i)
        sa, sb = MpcSession(3, seed=i), MpcSession(3, seed=1000 + i)
        shared_a, shared_b = sa.share_instance(a), sb.share_instance(b)
        _, ta = sa.private_solve(shared_a, default_schedule(shared_a.public_shape()))
        _, tb = sb.private_solve(shared_b, default_schedule(shared_b.public_shape()))
        assert ta.dumps().encode() == tb.dumps().encode()
        pairs += 1
    elapsed = time.perf_counter() - t0
    verdict(8, f"100 private solves match plaintext exactly; {pairs} same-shape transcript pairs byte-identical ({elapsed:.1f}s)")


def test_c09_early_stop_monotonicity():
    for seed in range(20):
        inst = random_small_instance(8000 + seed, cap_max=4, weight_max=2, dense=True)
        full = solve_rebalancing(inst)
        zero = solve_rebalancing(inst, iteration_bound=0)
        assert zero.objective == 0
        assert all(f == 0 for f in zero.circulation.flows)
        previous = -1
        k = 0
        while True:
            report = solve_rebalancing(inst, iteration_bound=k)
            assert report.objective >= previous
            previous = report.objective
            if not report.terminated_early:
                break
            k += 1
        assert previous == full.objective
    verdict(9, "objectives nondecreasing in the iteration bound; bound 0 is the zero circulation")


def test_c10_performance_smoke():
    inst = generate_instance(n=100, m=400, cap_max=2**20, weight_max=1, seed=11)
    t0 = time.perf_counter()
    report = solve_rebalancing(inst)
    solve_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    dec = decompose(report.circulation)
    decompose_time = time.perf_counter() - t1
    assert decomposition_reasons(dec) == []
    assert report.objective == report.circulation.objective()
    assert solve_time < 1.0
    assert decompose_time < 0.1
    verdict(10, f"n=100 m=400 caps<=2^20: solve {solve_time*1000:.0f}ms, decompose {decompose_time*1000:.0f}ms")


def test_c11_end_to_end_determinism(tmp_path):
    from pcnflow.model import dump_instance

    inst = generate_instance(5, 6, cap_max=3, weight_max=1, seed=42)
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(dump_instance(inst))
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        code = main(
            ["run", str(instance_path), "--outdir", str(d), "--seed", "123", "--mpc", "--k", "3"]
        )
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    verdict(11, f"two seeded runs produced byte-identical artifacts ({', '.join(names)})")
