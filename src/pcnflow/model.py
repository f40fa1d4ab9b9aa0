"""Rebalancing instances: participants, directed capacity edges, and validation.

A rebalancing instance records, for every channel that opted in, how many
coins may move in which direction and how much the owner values that
movement. All quantities are integers in the smallest currency unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Iterable, Iterator, NamedTuple

NodeId = str

# Default bounds: up to ~10 BTC per edge at satoshi granularity, weights
# small enough that objectives stay far below the sharing modulus.
DEFAULT_CAPACITY_BOUND = 2**30
DEFAULT_WEIGHT_BOUND = 2**10

# Guard against accidental week-long oblivious solves from default bounds.
MAX_UNCONFIRMED_SCHEDULE = 20_000

_INSTANCE_KEYS = {"nodes", "edges", "weight_bound", "capacity_bound"}
_EDGE_KEYS = {"from", "to", "capacity", "weight"}


class ModelError(ValueError):
    """Invalid input: instance data, an input document or a parameter.
    Every refusal raises this class itself, with the reason as its message (exit 1)."""


class InvariantViolation(RuntimeError):
    """A broken internal invariant: a bug in the program, not bad input (exit 2).
    Every such failure raises this class itself; ``solver.SolverError`` and
    ``execution.PartialCycle`` are aliases of it."""


class ChannelConstraint(NamedTuple):
    """One directed rebalancing-capacity declaration.

    At most ``capacity`` coins may flow from ``src`` to ``dst``; each unit
    moved is worth ``weight`` to the channel owner.
    """

    src: NodeId
    dst: NodeId
    capacity: int
    weight: int = 1


class RebalancingInstance(NamedTuple):
    """Validated, canonically ordered rebalancing problem.

    Immutable after construction; safe to share across threads. ``nodes``
    is sorted and ``edges`` is sorted by (src, dst), so two instances built
    from permutations of the same inputs compare equal.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[ChannelConstraint, ...]
    weight_bound: int = DEFAULT_WEIGHT_BOUND
    capacity_bound: int = DEFAULT_CAPACITY_BOUND

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def node_index(self) -> dict[NodeId, int]:
        return {v: i for i, v in enumerate(self.nodes)}


def is_node_id(v) -> bool:
    """The one node-id rule for every input document: a non-empty string,
    encodable as UTF-8, free of ``->``, which joins a channel's endpoints
    in ``ledger.json`` keys."""
    if not isinstance(v, str) or not v or "->" in v:
        return False
    try:
        v.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def build_instance(
    nodes: Iterable[NodeId],
    constraints: Iterable[ChannelConstraint],
    *,
    weight_bound: int = DEFAULT_WEIGHT_BOUND,
    capacity_bound: int = DEFAULT_CAPACITY_BOUND,
) -> RebalancingInstance:
    """Validate and canonicalize an instance.

    Zero-capacity edges are dropped (a missing edge and a zero-capacity
    edge mean the same thing). Antiparallel positive pairs are rejected
    rather than netted so that inputs stay auditable.
    """
    node_list = list(nodes)
    for v in node_list:
        if not is_node_id(v):
            raise ModelError(f"node ids must be non-empty UTF-8 strings without '->', got {v!r}")
    node_set = set(node_list)
    if len(node_set) != len(node_list):
        raise ModelError("duplicate node ids")
    if weight_bound < 0 or capacity_bound < 0:
        raise ModelError("bounds must be non-negative")

    seen: dict[tuple[NodeId, NodeId], ChannelConstraint] = {}
    for c in constraints:
        src, dst, capacity, weight = c
        if src == dst:
            raise ModelError(f"edge {src}->{dst}")
        if src not in node_set or dst not in node_set:
            raise ModelError(f"edge {src}->{dst} has an unenrolled endpoint")
        if capacity < 0:
            raise ModelError(f"negative capacity on {src}->{dst}")
        if capacity > capacity_bound:
            raise ModelError(f"capacity {capacity} on {src}->{dst} exceeds bound {capacity_bound}")
        if not 0 <= weight <= weight_bound:
            raise ModelError(f"weight {weight} on {src}->{dst} outside [0, {weight_bound}]")
        key = (src, dst)
        if key in seen:
            raise ModelError(f"edge {src}->{dst} declared twice")
        seen[key] = c

    for (u, v), c in seen.items():
        other = seen.get((v, u))
        if c.capacity > 0 and other is not None and other.capacity > 0:
            raise ModelError(f"both {u}->{v} and {v}->{u} have positive capacity")

    kept = sorted((c for c in seen.values() if c.capacity > 0), key=lambda c: (c.src, c.dst))
    return RebalancingInstance(
        nodes=tuple(sorted(node_set)),
        edges=tuple(kept),
        weight_bound=weight_bound,
        capacity_bound=capacity_bound,
    )


def child_seed(seed: int, *labels) -> int:
    """Derive an independent 64-bit seed from a run seed and a label path."""
    import hashlib  # loads OpenSSL, which ``gen`` does not need

    text = "/".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def is_json_int(x) -> bool:
    """True for JSON integers; JSON true/false parse to bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


# Artifacts are rendered directly: any ``indent`` sends ``json.dumps`` to
# its pure-Python encoder. Each renderer produces exactly
# ``json.dumps(doc, indent=2) + "\n"`` of its ``*_to_json_dict``
# document, from f-strings (which format about twice as fast as ``%``
# templates of the same record) and the helpers below. A small artifact
# is one string; a large one (``executions.json``, ``events.json``) is an
# iterator of chunks whose concatenation is that text, so ``write_text``
# streams it to disk without ever holding the whole text:
# ``executions.json`` comes one cycle to a chunk, ``events.json``
# ``RECORDS_PER_CHUNK`` records to a chunk.

RECORDS_PER_CHUNK = 4096


class JsonIds(dict):
    """Node id -> its JSON string literal, encoded on first use.

    The literal is ASCII-only, as ``json.dumps`` writes it by default.
    """

    def __missing__(self, node: NodeId) -> str:
        text = self[node] = encode_basestring_ascii(node)
        return text


def json_array(items: list[str], pad: str) -> str:
    """A list of rendered items laid out as ``json.dumps(indent=2)`` does
    on a line indented by ``pad``."""
    if not items:
        return "[]"
    separator = f",\n{pad}  "
    return f"[\n{pad}  {separator.join(items)}\n{pad}]"


def json_array_chunks(blocks: Iterator[str]) -> Iterator[str]:
    """A top-level array as ``json.dumps(indent=2) + "\\n"`` lays it out,
    in chunks, from blocks of rendered items, each block's items already
    joined by ``",\\n  "``."""
    first = next(blocks, None)
    if first is None:
        yield "[]\n"
        return
    yield "[\n  "
    yield first
    for block in blocks:
        yield ",\n  "
        yield block
    yield "\n]\n"


def json_object(members: list[str], pad: str) -> str:
    """Like ``json_array`` for rendered ``"key": value`` members."""
    if not members:
        return "{}"
    separator = f",\n{pad}  "
    return f"{{\n{pad}  {separator.join(members)}\n{pad}}}"


def instance_from_json_dict(data: dict) -> RebalancingInstance:
    """Parse the canonical on-disk format. Unknown fields are rejected."""
    if not isinstance(data, dict):
        raise ModelError("instance document must be a JSON object")
    unknown = set(data) - _INSTANCE_KEYS
    if unknown:
        raise ModelError(f"unknown instance fields: {sorted(unknown)}")
    missing = {"nodes", "edges"} - set(data)
    if missing:
        raise ModelError(f"missing instance fields: {sorted(missing)}")

    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise ModelError("instance nodes and edges must be lists")
    edges = []
    for raw in data["edges"]:
        if not isinstance(raw, dict):
            raise ModelError("edge entries must be objects")
        bad = set(raw) - _EDGE_KEYS
        if bad:
            raise ModelError(f"unknown edge fields: {sorted(bad)}")
        if "from" not in raw or "to" not in raw or "capacity" not in raw:
            raise ModelError("edges need from, to and capacity")
        if not isinstance(raw["from"], str) or not isinstance(raw["to"], str):
            raise ModelError("edge endpoints must be strings")
        for k in ("capacity", "weight"):
            if k in raw and not is_json_int(raw[k]):
                raise ModelError(f"edge field {k!r} must be an integer")
        edges.append(
            ChannelConstraint(raw["from"], raw["to"], raw["capacity"], raw.get("weight", 1))
        )

    for k in ("weight_bound", "capacity_bound"):
        if k in data and not is_json_int(data[k]):
            raise ModelError(f"{k} must be an integer")
    return build_instance(
        data["nodes"],
        edges,
        weight_bound=data.get("weight_bound", DEFAULT_WEIGHT_BOUND),
        capacity_bound=data.get("capacity_bound", DEFAULT_CAPACITY_BOUND),
    )


def dump_instance(instance: RebalancingInstance) -> str:
    """Text of ``instance.json``: the canonical on-disk format."""
    names = JsonIds()
    edges = [
        f'{{\n      "from": {names[e.src]},\n      "to": {names[e.dst]},\n'
        f'      "capacity": {e.capacity},\n      "weight": {e.weight}\n    }}'
        for e in instance.edges
    ]
    return (
        f'{{\n  "nodes": {json_array([names[v] for v in instance.nodes], "  ")},\n'
        f'  "edges": {json_array(edges, "  ")},\n  "weight_bound": {instance.weight_bound},\n'
        f'  "capacity_bound": {instance.capacity_bound}\n}}\n'
    )


def write_text(path: str | None, chunks: str | Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as UTF-8, one chunk after the other,
    or to standard output if ``path`` is empty or ``None``.

    A ``str`` is a single chunk and is written whole.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def check_writes(writes, reads=(), *, removes=(), makes: str | None = None) -> None:
    """Refuse a path in ``writes`` (``None``: an option not given) or
    ``removes`` (files the command may delete) that is the file of one of
    ``reads`` (symlinks, ``..`` and hard links count), of an earlier path or
    of a directory made for ``makes``; and a written path that names an
    entry other than a regular file or lies in a folder it cannot write or make."""

    def file_id(path: str):  # (st_ino, st_dev) of the entry, else the resolved path
        real = os.path.realpath(path)
        return os.stat(real)[1:3] if os.path.exists(real) else real

    def writable(folder: str) -> bool:
        return os.path.isdir(folder) and os.access(folder, os.W_OK)

    made, folder = set(), os.path.realpath(makes or ".")
    while not os.path.exists(folder):
        made.add(folder)
        folder = os.path.dirname(folder)
    made = made if writable(folder) else set()
    owner = dict.fromkeys(made, "makes a directory")
    owner.update((file_id(p), f"reads {p}") for p in reads if p)
    for verb, path in [*(("writes", p) for p in writes if p), *(("deletes", p) for p in removes)]:
        key = file_id(path)
        if key in owner:
            raise ModelError(f"{path}: the command {owner[key]} there")
        owner[key] = f"{verb} {path}"
        # Only what is written must be a regular file; removes share the
        # writes' folder, so the folder check below holds for them too.
        if verb == "writes" and os.path.lexists(path) and not os.path.isfile(path):
            raise ModelError(f"{path}: not a regular file")
        folder = os.path.dirname(path) or "."
        if not (writable(folder) or os.path.realpath(folder) in made):
            raise ModelError(f"{path}: not in a directory the command can write")


def open_input(path: str) -> BinaryIO:
    """``path`` opened for bytes, not waiting for a writer: a FIFO without
    one reads as empty, and a pipe with one is read to its end."""
    fh = open(path, "rb", opener=lambda p, f: os.open(p, f | os.O_NONBLOCK))
    os.set_blocking(fh.fileno(), True)
    return fh


def read_json(path: str):
    """The JSON document in ``path``, opened by ``open_input``. A file that
    is not UTF-8 JSON, nests too deep for the parser or holds an integer
    literal longer than the interpreter converts is a ``ModelError``; a
    missing file stays an ``OSError``."""
    with io.TextIOWrapper(open_input(path), encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ModelError(f"{path}: not valid JSON: nested too deeply") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
            raise ModelError(f"{path}: not valid JSON: {exc}") from exc


def load_instance(path: str) -> RebalancingInstance:
    return instance_from_json_dict(read_json(path))
