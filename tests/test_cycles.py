import hashlib

import pytest
from hypothesis import given, strategies as st

from conftest import random_small_instance
from pcnflow.cli import generate_instance
from pcnflow.cycles import (
    CycleFlow,
    Decomposition,
    cycles_from_json_dict,
    decompose,
    decomposition_reasons,
    decomposition_to_dot,
    decomposition_to_json_dict,
    dump_decomposition,
)
from pcnflow.model import ChannelConstraint, ModelError, build_instance
from pcnflow.solver import Circulation, solve_rebalancing


def triangle_circulation(flow=4):
    inst = build_instance(
        ["A", "B", "C"],
        [
            ChannelConstraint("A", "B", 4),
            ChannelConstraint("B", "C", 4),
            ChannelConstraint("C", "A", 4),
        ],
    )
    return Circulation(inst, (flow, flow, flow))


def figure_eight_circulation():
    """Two cycles through A superposed: (A,B,C) carrying 3, (A,D,E) carrying 2."""
    inst = build_instance(
        ["A", "B", "C", "D", "E"],
        [
            ChannelConstraint("A", "B", 5),
            ChannelConstraint("B", "C", 5),
            ChannelConstraint("C", "A", 5),
            ChannelConstraint("A", "D", 5),
            ChannelConstraint("D", "E", 5),
            ChannelConstraint("E", "A", 5),
        ],
    )
    flows = {
        ("A", "B"): 3, ("B", "C"): 3, ("C", "A"): 3,
        ("A", "D"): 2, ("D", "E"): 2, ("E", "A"): 2,
    }
    return Circulation(inst, tuple(flows[(e.src, e.dst)] for e in inst.edges))


def _reference_decompose(circulation):
    """The specification of ``decompose``: every round starts a fresh walk
    at the tail of the smallest live edge and follows smallest live
    successors until a vertex repeats, then peels that cycle."""
    remaining = {
        (e.src, e.dst): f for e, f in zip(circulation.instance.edges, circulation.flows) if f > 0
    }
    cycles = []
    while remaining:
        cur = min(remaining)[0]
        path, seen_at = [cur], {cur: 0}
        while True:
            nxt = min(v for (u, v) in remaining if u == cur)
            if nxt in seen_at:
                vertices = path[seen_at[nxt]:]
                break
            seen_at[nxt] = len(path)
            path.append(nxt)
            cur = nxt
        pairs = [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]
        weight = min(remaining[p] for p in pairs)
        for p in pairs:
            remaining[p] -= weight
            if remaining[p] == 0:
                del remaining[p]
        lead = vertices.index(min(vertices))
        cycles.append(CycleFlow(tuple(vertices[lead:] + vertices[:lead]), weight))
    return tuple(cycles)


class TestDecompose:
    def test_zero_circulation_empty(self):
        inst = triangle_circulation().instance
        assert decompose(Circulation(inst, (0,) * inst.m)).cycles == ()

    def test_saturated_triangle_single_cycle(self):
        dec = decompose(triangle_circulation())
        assert dec.cycles == (CycleFlow(("A", "B", "C"), 4),)

    def test_figure_eight_two_cycles(self):
        dec = decompose(figure_eight_circulation())
        assert set(dec.cycles) == {
            CycleFlow(("A", "B", "C"), 3),
            CycleFlow(("A", "D", "E"), 2),
        }
        assert decomposition_reasons(dec) == []

    def test_invalid_circulation_rejected(self):
        inst = triangle_circulation().instance
        with pytest.raises(ModelError, match=r"^conservation violated at A \(net -2\)$"):
            decompose(Circulation(inst, (4, 4, 2)))

    def test_deterministic(self):
        circ = figure_eight_circulation()
        assert decompose(circ) == decompose(circ)

    def test_cycle_weight_is_min_flow_on_cycle(self):
        # One cycle, uneven residuals force two extractions.
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
        circ = solve_rebalancing(inst).circulation
        dec = decompose(circ)
        assert sorted(c.weight for c in dec.cycles) == [2, 3]
        assert decomposition_reasons(dec) == []

    @given(st.integers(0, 300))
    def test_random_circulations_decompose_cleanly(self, seed):
        inst = random_small_instance(seed, dense=True)
        circ = solve_rebalancing(inst).circulation
        dec = decompose(circ)
        assert decomposition_reasons(dec) == []
        assert len(dec.cycles) <= inst.m
        support = {
            (e.src, e.dst) for e, f in zip(inst.edges, circ.flows) if f > 0
        }
        for cycle in dec.cycles:
            assert len(set(cycle.vertices)) == len(cycle.vertices)
            assert cycle.weight >= 1
            # Sign-consistency: cycles only ride edges the circulation uses.
            assert set(cycle.edges()) <= support

    def test_canonical_rotation_smallest_vertex_first(self):
        dec = decompose(triangle_circulation())
        for cycle in dec.cycles:
            assert cycle.vertices[0] == min(cycle.vertices)

    @pytest.mark.parametrize(
        "shape, count, sha",
        [
            ((300, 1200, 2**20, 1, 5), 585,
             "b39e991ccbc0939a3604d34d2c67c3cfdf71e2bd6d96291cf8af906634e9b925"),
            ((200, 800, 2**20, 16, 3), 367,
             "fc5dc3318e1b35a698337fe6195c0680241911ba7381f91585f913d3b721f718"),
        ],
    )
    def test_pinned_cycles_on_generated_instances(self, shape, count, sha):
        """Same cycles in the same order as the pinned decomposition."""
        dec = decompose(solve_rebalancing(generate_instance(*shape)).circulation)
        assert len(dec.cycles) == count
        assert hashlib.sha256(dump_decomposition(dec).encode()).hexdigest() == sha

    @given(
        st.integers(3, 40), st.integers(0, 2**32), st.integers(0, 8), st.integers(1, 2**10)
    )
    def test_same_cycles_as_reference_walk(self, n, seed, weight_max, cap_max):
        m = min(4 * n, n * (n - 1) // 2)
        inst = generate_instance(n, m, cap_max=cap_max, weight_max=weight_max, seed=seed)
        circ = solve_rebalancing(inst).circulation
        assert decompose(circ).cycles == _reference_decompose(circ)

    @given(st.integers(3, 30), st.integers(0, 2**32), st.randoms(use_true_random=False))
    def test_node_and_edge_order_do_not_matter(self, n, seed, rng):
        """``decompose`` orders nodes itself: an instance built without
        ``build_instance``, its nodes and edges shuffled, gives the same cycles."""
        m = min(3 * n, n * (n - 1) // 2)
        inst = generate_instance(n, m, cap_max=50, weight_max=3, seed=seed)
        circ = solve_rebalancing(inst).circulation
        nodes, pairs = list(inst.nodes), list(zip(inst.edges, circ.flows))
        rng.shuffle(nodes)
        rng.shuffle(pairs)
        shuffled = inst._replace(nodes=tuple(nodes), edges=tuple(e for e, _ in pairs))
        flows = tuple(f for _, f in pairs)
        assert decompose(Circulation(shuffled, flows)).cycles == decompose(circ).cycles


class TestValidator:
    def test_accepts_decompose_output(self):
        assert decomposition_reasons(decompose(figure_eight_circulation())) == []

    def test_rejects_perturbed_weight(self):
        dec = decompose(figure_eight_circulation())
        bumped = Decomposition(
            cycles=(
                CycleFlow(dec.cycles[0].vertices, dec.cycles[0].weight + 1),
            ) + dec.cycles[1:],
            source=dec.source,
        )
        assert decomposition_reasons(bumped) == [
            f"decomposition does not sum to the circulation at edge {e}: "
            "the cycles carry 4, the circulation 3"
            for e in ("A->B", "B->C", "C->A")
        ]

    def test_rejects_repeated_vertex(self):
        circ = triangle_circulation()
        dec = Decomposition(
            cycles=(CycleFlow(("A", "B", "A", "C"), 4),), source=circ
        )
        assert decomposition_reasons(dec) == [
            "decomposition cycle 0: needs at least two distinct vertices",
            "decomposition cycle 0: edge B->A is not in the instance",
            "decomposition cycle 0: edge A->C is not in the instance",
            "decomposition does not sum to the circulation at edge B->C: "
            "the cycles carry 0, the circulation 4",
        ]

    def test_rejects_unknown_edge(self):
        circ = triangle_circulation()
        dec = Decomposition(cycles=(CycleFlow(("A", "C", "B"), 4),), source=circ)
        assert decomposition_reasons(dec) == [
            "decomposition cycle 0: edge A->C is not in the instance",
            "decomposition cycle 0: edge C->B is not in the instance",
            "decomposition cycle 0: edge B->A is not in the instance",
            *(
                f"decomposition does not sum to the circulation at edge {e}: "
                "the cycles carry 0, the circulation 4"
                for e in ("A->B", "B->C", "C->A")
            ),
        ]

    def test_rejects_too_many_cycles(self):
        circ = triangle_circulation(flow=4)
        four_copies = tuple(CycleFlow(("A", "B", "C"), 1) for _ in range(4))
        assert decomposition_reasons(Decomposition(four_copies, circ)) == [
            "decomposition has 4 cycles, more than m=3"
        ]

    def test_rejects_nonpositive_weight(self):
        circ = triangle_circulation()
        dec = Decomposition(
            cycles=(CycleFlow(("A", "B", "C"), 0), CycleFlow(("A", "B", "C"), 4)),
            source=circ,
        )
        assert decomposition_reasons(dec) == ["decomposition cycle 0: weight 0 is not positive"]


class TestSerialization:
    def test_json_round_trip(self):
        dec = decompose(figure_eight_circulation())
        doc = decomposition_to_json_dict(dec)
        assert Decomposition(cycles_from_json_dict(doc), dec.source) == dec

    def test_dot_export_lists_cycles(self):
        dec = decompose(figure_eight_circulation())
        dot = decomposition_to_dot(dec)
        assert dot.startswith("digraph")
        assert '"A" -> "B"' in dot
        assert "firebrick" in dot  # first cycle gets the first palette color

    def test_dot_escapes_quotes_and_backslashes(self):
        inst = build_instance(
            ['a"b', "c\\", "d"],
            [
                ChannelConstraint('a"b', "c\\", 1),
                ChannelConstraint("c\\", "d", 1),
                ChannelConstraint("d", 'a"b', 1),
            ],
        )
        dot = decomposition_to_dot(decompose(Circulation(inst, (1, 1, 1))))
        assert '  "a\\"b";\n' in dot and '  "c\\\\";\n' in dot and '  "d";\n' in dot
        assert '  "a\\"b" -> "c\\\\" [' in dot
        assert '  "c\\\\" -> "d" [' in dot
        assert '  "d" -> "a\\"b" [' in dot
