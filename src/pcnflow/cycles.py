"""Decompose a circulation into sign-consistent cycle flows.

The active set starts as all edges carrying flow. Each round walks the
support graph (always following the smallest-id successor) until a vertex
repeats, peels off that cycle at the minimum flow along it, and drops any
edge that hits zero. Conservation of what remains is preserved by every
peel, so the walk can never get stuck, and at least one edge dies per
round, giving at most m cycles.

Cycles are only ever found among edges still carrying flow, which is what
makes the decomposition sign-consistent: no cycle traverses an edge
against the circulation's direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .model import JsonIds, ModelError, NodeId, is_json_int, is_node_id, json_array

if TYPE_CHECKING:  # annotations only: ``pcnflow execute`` loads no solver
    from .solver import Circulation


class CycleFlow(NamedTuple):
    """A simple directed cycle carrying a uniform amount."""

    vertices: tuple[NodeId, ...]
    weight: int

    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


class Decomposition(NamedTuple):
    cycles: tuple[CycleFlow, ...]
    source: Circulation


def _canonical_rotation(vertices: list[int]) -> list[int]:
    lead = vertices.index(min(vertices))
    return vertices[lead:] + vertices[:lead]


def decompose(circulation: Circulation) -> Decomposition:
    circulation.validate()  # ModelError: decomposition is undefined
    # The walk runs on node indices in sorted id order, so comparing
    # indices compares ids, and on edge ids in (tail, head) order.
    nodes = sorted(circulation.instance.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    support = sorted(
        (index[e.src], index[e.dst], f)
        for e, f in zip(circulation.instance.edges, circulation.flows)
        if f > 0
    )
    tails = [u for u, _, _ in support]
    heads = [v for _, v, _ in support]
    remaining = [f for _, _, f in support]  # per edge; 0 once the edge is dead
    # Edges only ever die, so the smallest live edge and each node's
    # smallest live successor edge are found by cursors that only move
    # forward.
    succ: list[list[int]] = [[] for _ in nodes]
    for edge, u in enumerate(tails):
        succ[u].append(edge)
    cursor = [0] * len(nodes)
    first = 0

    # The walk from the tail of the smallest live edge. A peel kills only
    # edges of the cycle, and no vertex gains a live successor, so the walk
    # up to the tail of the first edge the peel killed is what the next
    # walk would retrace: it resumes there instead of starting over. Only
    # when that edge is the smallest live edge, the walk's first, does it
    # restart from the new smallest one.
    path: list[int] = []
    path_edges: list[int] = []  # path_edges[j] leads from path[j] to path[j + 1]
    seen_at = [-1] * len(nodes)  # a node's position on the path, -1 if off it
    cycles: list[CycleFlow] = []
    while True:
        if not path:
            while first < len(support) and not remaining[first]:
                first += 1
            if first == len(support):
                break
            path.append(tails[first])
            seen_at[path[0]] = 0
        cur = path[-1]
        out, i = succ[cur], cursor[cur]
        while not remaining[out[i]]:
            i += 1
        cursor[cur] = i
        edge = out[i]
        nxt = heads[edge]
        if seen_at[nxt] < 0:
            seen_at[nxt] = len(path)
            path.append(nxt)
            path_edges.append(edge)
            continue

        start = seen_at[nxt]
        cycle_edges = path_edges[start:]
        cycle_edges.append(edge)
        flows = [remaining[e] for e in cycle_edges]
        weight = min(flows)
        first_dead = flows.index(weight)  # the first edge the peel kills
        for e in cycle_edges:
            remaining[e] -= weight
        rotated = _canonical_rotation(path[start:])
        cycles.append(CycleFlow(tuple(map(nodes.__getitem__, rotated)), weight))
        keep = start + first_dead + 1 if start + first_dead else 0
        for v in path[keep:]:
            seen_at[v] = -1
        del path[keep:]
        del path_edges[max(keep - 1, 0) :]

    return Decomposition(cycles=tuple(cycles), source=circulation)


def decomposition_reasons(d: Decomposition) -> list[str]:
    """Independent check of the decomposition contract, one reason per
    broken rule: at most m cycles, each simple with positive weight on
    edges of the instance, summing edgewise to the source circulation."""
    inst = d.source.instance
    reasons = []
    if len(d.cycles) > inst.m:
        reasons.append(f"decomposition has {len(d.cycles)} cycles, more than m={inst.m}")
    known = {(e.src, e.dst) for e in inst.edges}
    sums: dict[tuple[NodeId, NodeId], int] = {}
    for i, c in enumerate(d.cycles):
        if c.weight < 1:
            reasons.append(f"decomposition cycle {i}: weight {c.weight} is not positive")
        if len(c.vertices) < 2 or len(set(c.vertices)) != len(c.vertices):
            reasons.append(f"decomposition cycle {i}: needs at least two distinct vertices")
        for a, b in c.edges():
            if (a, b) not in known:
                reasons.append(f"decomposition cycle {i}: edge {a}->{b} is not in the instance")
            sums[a, b] = sums.get((a, b), 0) + c.weight
    for e, f in zip(inst.edges, d.source.flows):
        got = sums.get((e.src, e.dst), 0)
        if got != f:
            reasons.append(
                f"decomposition does not sum to the circulation at edge {e.src}->{e.dst}: "
                f"the cycles carry {got}, the circulation {f}"
            )
    return reasons


def decomposition_to_json_dict(d: Decomposition) -> dict:
    return {
        "cycles": [
            {"vertices": list(c.vertices), "weight": c.weight} for c in d.cycles
        ]
    }


def cycles_from_json_dict(data: dict) -> tuple[CycleFlow, ...]:
    """Parse a ``{"cycles": [{"vertices": [...], "weight": w}]}`` document.

    Each cycle needs at least two distinct node ids (``model.is_node_id``)
    and a positive integer weight; anything else is a ``ModelError``.
    """
    if not isinstance(data, dict) or set(data) != {"cycles"}:
        raise ModelError("malformed decomposition document")
    if not isinstance(data["cycles"], list):
        raise ModelError("decomposition cycles must be a list")
    cycles = []
    for i, raw in enumerate(data["cycles"]):
        if not isinstance(raw, dict) or set(raw) != {"vertices", "weight"}:
            raise ModelError(f"malformed cycle entry {i}")
        vertices, weight = raw["vertices"], raw["weight"]
        if not isinstance(vertices, list) or not all(map(is_node_id, vertices)):
            raise ModelError(
                f"cycle {i}: vertices must be a list of node ids "
                "(non-empty UTF-8 strings without '->')"
            )
        if len(vertices) < 2 or len(set(vertices)) != len(vertices):
            raise ModelError(f"cycle {i}: needs at least two distinct vertices")
        if not is_json_int(weight) or weight < 1:
            raise ModelError(f"cycle {i}: weight must be a positive integer")
        cycles.append(CycleFlow(tuple(vertices), weight))
    return tuple(cycles)


def dump_decomposition(d: Decomposition) -> str:
    """Text of ``decomposition.json``, equal to dumping ``decomposition_to_json_dict``."""
    names = JsonIds()
    cycles = [
        f'{{\n      "vertices": {json_array([names[v] for v in c.vertices], "      ")},\n'
        f'      "weight": {c.weight}\n    }}'
        for c in d.cycles
    ]
    return f'{{\n  "cycles": {json_array(cycles, "  ")}\n}}\n'


_DOT_PALETTE = (
    "firebrick", "royalblue", "forestgreen", "darkorange", "purple",
    "deeppink", "teal", "saddlebrown", "slategray", "gold",
)


def _dot_id(v: NodeId) -> str:
    """A node id as a quoted DOT identifier, with ``\\`` and ``"`` escaped."""
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


def decomposition_to_dot(d: Decomposition) -> str:
    """Graphviz view of the circulation with one color per cycle."""
    color_of: dict[tuple[NodeId, NodeId], list[int]] = {}
    for i, c in enumerate(d.cycles):
        for pair in c.edges():
            color_of.setdefault(pair, []).append(i)
    lines = ["digraph circulation {"]
    for v in d.source.instance.nodes:
        lines.append(f"  {_dot_id(v)};")
    for e, f in zip(d.source.instance.edges, d.source.flows):
        if f == 0:
            continue
        pair = (e.src, e.dst)
        members = color_of.get(pair, [])
        color = _DOT_PALETTE[members[0] % len(_DOT_PALETTE)] if members else "black"
        label = f"{f}" + (f" (cycles {','.join(map(str, members))})" if members else "")
        lines.append(
            f'  {_dot_id(e.src)} -> {_dot_id(e.dst)} [label="{label}", color="{color}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
