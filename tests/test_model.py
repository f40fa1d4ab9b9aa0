import json

import pytest
from hypothesis import given, strategies as st

from pcnflow.model import (
    ChannelConstraint,
    DEFAULT_CAPACITY_BOUND,
    ModelError,
    build_instance,
    dump_instance,
    instance_from_json_dict,
)


def triangle():
    return build_instance(
        ["A", "B", "C"],
        [
            ChannelConstraint("A", "B", 4),
            ChannelConstraint("B", "C", 4),
            ChannelConstraint("C", "A", 4),
        ],
    )


class TestBuildInstance:
    def test_triangle_shape(self):
        inst = triangle()
        assert inst.n == 3 and inst.m == 3
        assert inst.nodes == ("A", "B", "C")

    def test_antiparallel_rejected(self):
        with pytest.raises(ModelError, match="^both A->B and B->A have positive capacity$"):
            build_instance(
                ["A", "B"],
                [ChannelConstraint("A", "B", 4), ChannelConstraint("B", "A", 2)],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError, match="^edge A->A$"):
            build_instance(["A"], [ChannelConstraint("A", "A", 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ModelError, match="^edge A->B declared twice$"):
            build_instance(
                ["A", "B"],
                [ChannelConstraint("A", "B", 1), ChannelConstraint("A", "B", 2)],
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ModelError, match="^edge A->X has an unenrolled endpoint$"):
            build_instance(["A", "B"], [ChannelConstraint("A", "X", 1)])

    def test_capacity_overflow(self):
        with pytest.raises(ModelError, match="^capacity 11 on A->B exceeds bound 10$"):
            build_instance(
                ["A", "B"], [ChannelConstraint("A", "B", 11)], capacity_bound=10
            )

    def test_weight_overflow(self):
        with pytest.raises(ModelError, match=r"^weight 9 on A->B outside \[0, 8\]$"):
            build_instance(
                ["A", "B"], [ChannelConstraint("A", "B", 1, weight=9)], weight_bound=8
            )

    def test_zero_capacity_edges_dropped(self):
        inst = build_instance(
            ["A", "B", "C"],
            [ChannelConstraint("A", "B", 0), ChannelConstraint("B", "C", 2)],
        )
        assert inst.m == 1
        assert inst.edges[0].src == "B"

    def test_zero_capacity_antiparallel_is_fine(self):
        inst = build_instance(
            ["A", "B"],
            [ChannelConstraint("A", "B", 3), ChannelConstraint("B", "A", 0)],
        )
        assert inst.m == 1

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ModelError):
            build_instance(["A", "A"], [])

    def test_empty_node_id_rejected(self):
        with pytest.raises(ModelError):
            build_instance([""], [])

    def test_default_bounds(self):
        assert triangle().capacity_bound == DEFAULT_CAPACITY_BOUND == 2**30

    def test_revalidation_idempotent(self):
        inst = triangle()
        again = build_instance(
            inst.nodes,
            inst.edges,
            weight_bound=inst.weight_bound,
            capacity_bound=inst.capacity_bound,
        )
        assert again == inst

    @given(st.permutations(list(range(4))))
    def test_canonical_ordering(self, order):
        constraints = [
            ChannelConstraint("A", "B", 4),
            ChannelConstraint("B", "C", 2),
            ChannelConstraint("C", "A", 1),
            ChannelConstraint("C", "D", 7),
        ]
        shuffled = [constraints[i] for i in order]
        assert build_instance("ABCD", shuffled) == build_instance("ABCD", constraints)


class TestJsonFormat:
    def test_round_trip(self):
        inst = triangle()
        assert instance_from_json_dict(json.loads(dump_instance(inst))) == inst

    def test_weight_defaults_to_one(self):
        doc = {
            "nodes": ["A", "B"],
            "edges": [{"from": "A", "to": "B", "capacity": 3}],
        }
        inst = instance_from_json_dict(doc)
        assert inst.edges[0].weight == 1

    def test_unknown_top_level_field_rejected(self):
        doc = json.loads(dump_instance(triangle()))
        doc["comment"] = "hi"
        with pytest.raises(ModelError):
            instance_from_json_dict(doc)

    def test_unknown_edge_field_rejected(self):
        doc = json.loads(dump_instance(triangle()))
        doc["edges"][0]["fee"] = 2
        with pytest.raises(ModelError):
            instance_from_json_dict(doc)

    def test_missing_fields_rejected(self):
        with pytest.raises(ModelError):
            instance_from_json_dict({"nodes": ["A"]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"nodes": 5, "edges": []},
            {"nodes": ["A", "B"], "edges": 5},
            {"nodes": {"A": 1, "B": 2}, "edges": []},
            {"nodes": ["A", "B"], "edges": [{"from": "A", "to": None, "capacity": 1}]},
            {"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B", "capacity": True}]},
            {"nodes": ["A", "B"],
             "edges": [{"from": "A", "to": "B", "capacity": 1, "weight": False}]},
            {"nodes": ["A", "B"], "edges": [], "capacity_bound": True},
            {"nodes": ["A", "B"], "edges": [], "weight_bound": 1.0},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ModelError):
            instance_from_json_dict(doc)

    def test_dump_is_stable(self):
        inst = triangle()
        assert dump_instance(inst) == dump_instance(inst)
        parsed = json.loads(dump_instance(inst))
        assert list(parsed) == ["nodes", "edges", "weight_bound", "capacity_bound"]
