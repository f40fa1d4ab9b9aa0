"""HTLC execution of the decomposed cycles, decided one cycle at a time.

Each cycle gets its own secret and one chain of HTLCs under the secret's
hash lock (the Lightning construction): from a randomly chosen initiator,
hop j pays the next node the cycle's weight with timelock L-j, for
j = 0..L-1. Time is discrete: a hop settles with the preimage in any
round up to its timelock and refunds in the round after it.

Run round by round, the initiator claims the last hop in round 1, which
reveals the preimage to that hop's sender, who claims the hop before in
round 2, and so on: hop j settles in round L-j, exactly at its timelock,
because the chain has no slack. So a node that delays settlement to
expiry changes no outcome, event or round. Withholding applies to
secrets a node *owns*: an initiator that withholds never starts the
cascade, and every hop refunds at its timelock+1; any other node has
nothing of its own to withhold and still claims funds it is entitled to,
since refusing would only donate its money to the cycle. A cycle is
therefore all-settled or all-refunded, and its whole outcome follows from
its rotation, its lock and whether its initiator withholds: that is all
a ``CycleExecution`` keeps, with no contract per hop. The round-by-round
rules live in the tests as the reference ``run_execution`` is checked
against.

``run_execution`` decides each cycle in O(1), checks that a completing
cycle's secret opens its lock, and books the hops of the completed cycles
per channel. No event log is stored: ``_event_batches`` makes the events on
demand from the decided cycles, for ``events.json`` and ``Ledger.events``,
in the order a round-by-round run gives them: round 0 holds every
initiator's reveal, each later round its settlements and refunds, then the
reveals those settlements cause, each group in cycle order.
"""

from __future__ import annotations

import hashlib
import random
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cycles import CycleFlow
from .model import (
    RECORDS_PER_CHUNK,
    InvariantViolation,
    JsonIds,
    ModelError,
    NodeId,
    is_node_id,
    json_array,
    json_array_chunks,
    json_object,
)

SECRET_BYTES = 32


def digest(preimage: bytes) -> bytes:
    return hashlib.sha256(preimage).digest()


PartialCycle = InvariantViolation  # bench/ imports and raises it from here


class CycleStatus(Enum):
    SETUP = "setup"
    COMPLETED = "completed"
    ABORTED = "aborted"


class Policy(Enum):
    HONEST = "honest"
    WITHHOLD_PREIMAGE = "withhold_preimage"
    DELAY_SETTLE_TO_EXPIRY = "delay_settle_to_expiry"


class CycleExecution:
    """A cycle's execution: ``order`` is the cycle's vertices rotated to
    start at the initiator, so hop j pays ``order[j]`` -> ``order[j+1]``
    under ``lock``, the digest of ``secret``, with timelock L-j."""

    __slots__ = ("cycle", "order", "secret", "lock", "status")

    def __init__(self, cycle: CycleFlow, order: tuple[NodeId, ...], secret: bytes, lock: bytes):
        self.cycle = cycle
        self.order = order
        self.secret = secret
        self.lock = lock
        self.status = CycleStatus.SETUP


class AdversarySpec(NamedTuple):
    """Per-node misbehavior. Nodes not listed are honest."""

    policies: dict[NodeId, Policy]

    @classmethod
    def honest(cls) -> "AdversarySpec":
        return cls({})


def adversary_from_json_dict(data: dict) -> AdversarySpec:
    if (
        not isinstance(data, dict)
        or set(data) != {"policies"}
        or not isinstance(data["policies"], dict)
    ):
        raise ModelError('adversary document must be {"policies": {...}}')
    policies = {}
    for node, name in data["policies"].items():
        if not is_node_id(node):
            raise ModelError(f"adversary policy for {node!r}, which is not a valid node id")
        try:
            policies[node] = Policy(name)
        except ValueError:
            raise ModelError(f"unknown policy {name!r} for {node}") from None
    return AdversarySpec(policies)


def make_execution(cycle: CycleFlow, initiator: NodeId, secret: bytes) -> CycleExecution:
    """Lay out a cycle's HTLC chain from a chosen initiator and secret."""
    if initiator not in cycle.vertices:
        raise ModelError("initiator must lie on the cycle")
    start = cycle.vertices.index(initiator)
    order = cycle.vertices[start:] + cycle.vertices[:start]
    return CycleExecution(cycle, order, secret, digest(secret))


def setup_cycle_htlcs(cycle: CycleFlow, rng_seed: int) -> CycleExecution:
    """Pick an initiator uniformly, sample a fresh secret, chain the HTLCs."""
    rng = random.Random(rng_seed)
    initiator = cycle.vertices[rng.randrange(len(cycle.vertices))]
    secret = rng.randbytes(SECRET_BYTES)
    return make_execution(cycle, initiator, secret)


# (round, kind, cycle, target): kind "settle" or "refund" with the index of
# the hop over all cycles, or "reveal" with the node that learned the
# preimage at the end of the round.
Event = tuple[int, str, int, int | NodeId]

# Reading an enum member off its class goes through a descriptor (about
# 0.15 us each on CPython 3.11), so the loops below use these names.
_SETUP, _COMPLETED, _ABORTED = CycleStatus.SETUP, CycleStatus.COMPLETED, CycleStatus.ABORTED
_WITHHOLD = Policy.WITHHOLD_PREIMAGE


class Ledger:
    """Settled amounts per node and channel, the rounds the run took, and
    the decided executions, from which the events are made on demand."""

    __slots__ = ("deltas", "rounds", "executions")

    def __init__(
        self,
        deltas: dict[NodeId, dict[tuple[NodeId, NodeId], int]] | None = None,
        rounds: int = 0,
        executions: Sequence[CycleExecution] = (),
    ):
        self.deltas = {} if deltas is None else deltas
        self.rounds = rounds
        self.executions = executions

    @property
    def events(self) -> list[Event]:
        return [event for batch in _event_batches(self.executions) for event in batch]


def net_balance_delta(ledger: Ledger, node: NodeId) -> int:
    return sum(ledger.deltas.get(node, {}).values())


def run_execution(
    executions: list[CycleExecution], adversary: AdversarySpec | None = None
) -> tuple[Ledger, list[CycleStatus]]:
    """Decide every cycle and book the hops of the completed ones.

    A cycle aborts if its initiator withholds and completes otherwise;
    cycles never interact, since each has its own secret and shared
    channels carry one independent hop per cycle. Every execution must
    still be in setup, and a completing one's secret must open its lock.
    The run takes one round more than the longest chain. Returns the
    ledger and the per-cycle statuses.
    """
    policies = (adversary or AdversarySpec.honest()).policies
    settled: dict[tuple[NodeId, NodeId], int] = {}  # channel -> amount moved
    for ex in executions:
        if ex.status is not _SETUP:
            raise InvariantViolation("execution already resolved")
        order = ex.order
        if policies.get(order[0]) is _WITHHOLD:
            ex.status = _ABORTED
            continue
        if digest(ex.secret) != ex.lock:
            raise InvariantViolation(f"cycle {ex.cycle.vertices}: the secret does not open the lock")
        ex.status = _COMPLETED
        weight = ex.cycle.weight
        for channel in zip(order, order[1:] + order[:1]):
            settled[channel] = settled.get(channel, 0) + weight

    horizon = max((len(ex.order) for ex in executions), default=0)
    ledger = Ledger(rounds=horizon + 1, executions=executions)
    for channel, amount in settled.items():
        sender, receiver = channel
        paid = ledger.deltas.setdefault(sender, {})
        paid[channel] = paid.get(channel, 0) - amount
        got = ledger.deltas.setdefault(receiver, {})
        got[channel] = got.get(channel, 0) + amount
    return ledger, [ex.status for ex in executions]


def _event_batches(executions: list[CycleExecution]) -> Iterator[list[Event]]:
    """The events of the decided ``executions`` in round order, in batches.

    Hop j of a cycle of length L settles in round L-j if the cycle
    completed, and its sender, unless it is the initiator, learns the
    preimage at the end of that round; it refunds in round L-j+1 if the
    cycle aborted. So a cycle has at most one event of each kind per round
    until it ends, in round L or L+1. A batch is one phase of a round:
    round 0's reveals, then each later round's settlements and refunds and
    its reveals.
    """
    live = []  # (cycle, 1 if it aborted else 0, index of its last hop + 1, order)
    top = 0
    for ci, ex in enumerate(executions):
        top += len(ex.order)
        live.append((ci, int(ex.status is not _COMPLETED), top, ex.order))
    yield [(0, "reveal", ci, order[0]) for ci, _, _, order in live]
    round_no = 1
    while live:
        yield [
            (round_no, "refund", ci, top + 1 - round_no)
            if late
            else (round_no, "settle", ci, top - round_no)
            for ci, late, top, _ in live
            if round_no > late
        ]
        yield [
            (round_no, "reveal", ci, order[-round_no])
            for ci, late, _, order in live
            if not late and round_no < len(order)
        ]
        live = [c for c in live if len(c[3]) + c[1] > round_no]
        round_no += 1


# The renderers below produce exactly ``json.dumps(doc, indent=2) + "\n"``
# of the documents at the end of the module (see the renderer note in
# model.py); the two large ones yield it in chunks. ``events.json`` has no
# document of its own: its records are the events with the keys round,
# event, cycle, then htlc or node.


def events_json_chunks(ledger: Ledger) -> Iterator[str]:
    """Text of ``events.json`` in chunks of ``RECORDS_PER_CHUNK`` records."""
    return json_array_chunks(_event_blocks(_event_batches(ledger.executions)))


def _event_blocks(batches: Iterable[list[Event]]) -> Iterator[str]:
    """The records of the events, ``RECORDS_PER_CHUNK`` to a block.

    A record is its head, the text up to the cycle number, then the cycle
    and the htlc index or node. All events of a batch share a round, and a
    batch holds reveals only or no reveals, so each batch is rendered by
    one comprehension with its round's heads.
    """
    names = JsonIds()
    items: list[str] = []
    for batch in batches:
        if not batch:
            continue
        round_no = batch[0][0]
        heads = {
            kind: f'{{\n    "round": {round_no},\n    "event": "{kind}",\n    "cycle": '
            for kind in ("settle", "refund", "reveal")
        }
        if batch[0][1] == "reveal":
            head = heads["reveal"]
            items += [f'{head}{cycle},\n    "node": {names[node]}\n  }}' for _, _, cycle, node in batch]
        else:
            items += [f'{heads[kind]}{cycle},\n    "htlc": {hop}\n  }}' for _, kind, cycle, hop in batch]
        while len(items) >= RECORDS_PER_CHUNK:
            yield ",\n  ".join(items[:RECORDS_PER_CHUNK])
            del items[:RECORDS_PER_CHUNK]
    if items:
        yield ",\n  ".join(items)


def events_to_json(ledger: Ledger) -> str:
    """Text of ``events.json`` as one string."""
    return "".join(events_json_chunks(ledger))


# Decided cycle status -> the state of each of its hops, and how many
# rounds after its timelock each hop resolves.
_HOPS = {_COMPLETED: ("settled", 0), _ABORTED: ("refunded", 1)}


def executions_json_chunks(executions: list[CycleExecution]) -> Iterator[str]:
    """Text of ``executions.json`` for decided ``executions``, equal to
    dumping ``executions_to_json_dict``, one chunk per cycle."""
    return json_array_chunks(_execution_records(executions))


def _execution_records(executions: list[CycleExecution]) -> Iterator[str]:
    """The record of each cycle's execution, with one record per hop."""
    names = JsonIds()
    for ex in executions:
        state, late = _HOPS[ex.status]
        ids = [names[v] for v in ex.order]
        length = len(ids)
        terms = (
            f',\n        "amount": {ex.cycle.weight},\n        "hash": "{ex.lock.hex()}",\n'
            '        "timelock": '
        )
        outcome = f',\n        "state": "{state}",\n        "resolved_round": '
        htlcs = [
            f'{{\n        "sender": {sender},\n        "receiver": {receiver}{terms}{timelock}'
            f"{outcome}{when}\n      }}"
            for sender, receiver, timelock, when in zip(
                ids, ids[1:] + ids[:1], range(length, 0, -1), range(length + late, late, -1)
            )
        ]
        yield (
            f'{{\n    "vertices": {json_array([names[v] for v in ex.cycle.vertices], "    ")},\n'
            f'    "weight": {ex.cycle.weight},\n    "initiator": {ids[0]},\n'
            f'    "status": "{ex.status.value}",\n    "htlcs": {json_array(htlcs, "    ")}\n  }}'
        )


def ledger_to_json(ledger: Ledger) -> str:
    """Text of ``ledger.json``, equal to dumping ``ledger_to_json_dict``."""
    doc = ledger_to_json_dict(ledger)
    names = JsonIds()
    deltas = [
        f"{names[node]}: "
        + json_object([f"{names[key]}: {amount}" for key, amount in per.items()], "    ")
        for node, per in doc["deltas"].items()
    ]
    return f'{{\n  "deltas": {json_object(deltas, "  ")},\n  "rounds": {doc["rounds"]}\n}}\n'


def executions_to_json_dict(executions: list[CycleExecution]) -> list[dict]:
    out = []
    for ex in executions:
        order, weight, lock = ex.order, ex.cycle.weight, ex.lock.hex()
        state, late = _HOPS[ex.status]
        length = len(order)
        out.append(
            {
                "vertices": list(ex.cycle.vertices),
                "weight": weight,
                "initiator": order[0],
                "status": ex.status.value,
                "htlcs": [
                    {
                        "sender": order[j],
                        "receiver": order[(j + 1) % length],
                        "amount": weight,
                        "hash": lock,
                        "timelock": length - j,
                        "state": state,
                        "resolved_round": length - j + late,
                    }
                    for j in range(length)
                ],
            }
        )
    return out


def ledger_to_json_dict(ledger: Ledger) -> dict:
    deltas = {
        node: {f"{src}->{dst}": amt for (src, dst), amt in sorted(per.items())}
        for node, per in sorted(ledger.deltas.items())
    }
    return {"deltas": deltas, "rounds": ledger.rounds}
