"""Synchronous-round HTLC execution, computed one cycle at a time.

Each cycle gets its own secret and its own chain of HTLCs with timelocks
L, L-1, ..., 1 starting at a randomly chosen initiator. Settlement
cascades backward: claiming an HTLC requires the preimage and reveals it
to the contract's counterparty at the end of the round, so each hop
settles exactly at its deadline in the honest case. The chain has no
slack, so delaying settlement to expiry never changes an outcome, an
event or a round on the chains ``make_execution`` builds.

Time is discrete: an HTLC with timelock t may settle in any round <= t and
refunds in round t+1. One settlement or message per round per contract.

Cycles never interact and each is a single chain, so no round is scanned.
Each cycle is resolved in one backward walk over its chain, in O(L), with
state of its own: the round at which each node learned the preimage. All
contracts of a cycle carry the same lock, so the secret is hashed once
per cycle and each settling contract's lock is compared with that digest.
Settled amounts add up per channel and become the ledger's per-node
deltas at the end.

Events are tuples ``(round, kind, cycle, target)``, merged into the order
a round-by-round run gives: by round, settlements and refunds before the
reveals they cause, then by cycle and contract.

Corrupted nodes follow small deterministic policies. Withholding applies
to secrets a node *owns*: an initiator that withholds never starts the
cascade (the whole cycle refunds); any other node has nothing of its own
to withhold and still claims funds it is entitled to, since refusing would
only donate its money to the cycle. Under these rules a cycle in setup
always ends completed (all settled) or aborted (all refunded); a mixed
outcome raises ``PartialCycle`` and means the simulator itself is broken.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import random
from enum import Enum
from typing import Iterator, NamedTuple

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


class PartialCycle(InvariantViolation):
    """A cycle ended with a mix of settled and refunded contracts."""


class PreimageMismatch(InvariantViolation):
    """Attempted settlement with a preimage that does not hash to the lock."""


class HtlcState(Enum):
    PENDING = "pending"
    SETTLED = "settled"
    REFUNDED = "refunded"


class CycleStatus(Enum):
    SETUP = "setup"
    COMPLETED = "completed"
    ABORTED = "aborted"


class Policy(Enum):
    HONEST = "honest"
    WITHHOLD_PREIMAGE = "withhold_preimage"
    DELAY_SETTLE_TO_EXPIRY = "delay_settle_to_expiry"


class HtlcContract:
    __slots__ = ("sender", "receiver", "amount", "hash", "timelock", "state", "resolved_round")

    def __init__(
        self,
        sender: NodeId,
        receiver: NodeId,
        amount: int,
        hash: bytes,
        timelock: int,
    ):
        self.sender = sender
        self.receiver = receiver
        self.amount = amount
        self.hash = hash
        self.timelock = timelock
        self.state = _PENDING  # HtlcState.PENDING, bound below
        self.resolved_round: int | None = None

    def settle(self, preimage: bytes, round_no: int) -> None:
        if self.state is not HtlcState.PENDING:
            raise RuntimeError("contract already resolved")
        if digest(preimage) != self.hash:
            raise PreimageMismatch(f"{self.sender}->{self.receiver}")
        if round_no > self.timelock:
            raise RuntimeError("settlement after expiry")
        self.state = HtlcState.SETTLED
        self.resolved_round = round_no

    def refund(self, round_no: int) -> None:
        if self.state is not HtlcState.PENDING:
            raise RuntimeError("contract already resolved")
        if round_no <= self.timelock:
            raise RuntimeError("refund before expiry")
        self.state = HtlcState.REFUNDED
        self.resolved_round = round_no


class CycleExecution:
    __slots__ = ("cycle", "initiator", "secret", "htlcs", "status")

    def __init__(
        self,
        cycle: CycleFlow,
        initiator: NodeId,
        secret: bytes,
        htlcs: list[HtlcContract],
    ):
        self.cycle = cycle
        self.initiator = initiator
        self.secret = secret
        self.htlcs = htlcs
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
    """Build the HTLC chain for a cycle from a chosen initiator and secret."""
    if initiator not in cycle.vertices:
        raise ValueError("initiator must lie on the cycle")
    start = cycle.vertices.index(initiator)
    order = cycle.vertices[start:] + cycle.vertices[:start]
    lock = digest(secret)
    htlcs = list(
        map(  # sender, receiver, amount, hash, timelock
            HtlcContract,
            order,
            order[1:] + order[:1],
            itertools.repeat(cycle.weight),
            itertools.repeat(lock),
            range(len(order), 0, -1),
        )
    )
    return CycleExecution(cycle=cycle, initiator=initiator, secret=secret, htlcs=htlcs)


def setup_cycle_htlcs(cycle: CycleFlow, rng_seed: int) -> CycleExecution:
    """Pick an initiator uniformly, sample a fresh secret, chain the HTLCs."""
    rng = random.Random(rng_seed)
    initiator = cycle.vertices[rng.randrange(len(cycle.vertices))]
    secret = rng.randbytes(SECRET_BYTES)
    return make_execution(cycle, initiator, secret)


# (round, kind, cycle, target): kind "settle" or "refund" with the index of
# the contract over all cycles, or "reveal" with the node that learned the
# preimage at the end of the round.
Event = tuple[int, str, int, int | NodeId]


class Ledger:
    """Settled amounts per node and channel, plus the event log."""

    __slots__ = ("deltas", "events", "rounds")

    def __init__(
        self,
        deltas: dict[NodeId, dict[tuple[NodeId, NodeId], int]] | None = None,
        events: list[Event] | None = None,
        rounds: int = 0,
    ):
        self.deltas = {} if deltas is None else deltas
        self.events = [] if events is None else events
        self.rounds = rounds


def net_balance_delta(ledger: Ledger, node: NodeId) -> int:
    return sum(ledger.deltas.get(node, {}).values())


# Reading an enum member off its class goes through a descriptor (about
# 0.15 us each on CPython 3.11), so the walk below compares against these
# names instead.
_PENDING, _SETTLED, _REFUNDED = HtlcState.PENDING, HtlcState.SETTLED, HtlcState.REFUNDED
_WITHHOLD, _DELAY = Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY


def _resolve_cycle(
    ci: int,
    ex: CycleExecution,
    offset: int,
    policies: dict[NodeId, Policy],
    settled: dict[tuple[NodeId, NodeId], int],
) -> tuple[list[Event], list[Event]]:
    """Settle or refund every contract of one cycle in one backward walk.

    The walk starts at the contract that pays the initiator. Contract j
    pays the sender of contract j+1, which learns the preimage at the end
    of the round in which j+1 settles, so it may claim j from the next
    round on, and only until j's timelock; otherwise j refunds the round
    after. Each contract must be pending, and a settling one must carry
    ``lock``, the digest of the cycle's secret. Adds settled amounts to
    ``settled``, sets the cycle's final status and returns its settle and
    refund events and its reveal events, each latest contract first.
    """
    initiator = ex.initiator
    lock = digest(ex.secret)
    learned = {initiator: 0}  # node -> round at whose end it knew
    done: list[Event] = []
    reveals: list[Event] = []
    refunds = 0
    hi = offset + len(ex.htlcs)
    for htlc in reversed(ex.htlcs):
        hi -= 1
        if htlc.state is not _PENDING:
            raise RuntimeError("contract already resolved")
        receiver, timelock = htlc.receiver, htlc.timelock
        known = learned.get(receiver)
        policy = policies.get(receiver) if policies else None
        if known is None or (policy is _WITHHOLD and receiver == initiator):
            round_no = None  # the receiver cannot or, owning the secret, will not claim
        elif policy is _DELAY:
            round_no = max(known + 1, timelock)
        else:
            round_no = known + 1
        if round_no is None or round_no > timelock:
            round_no = timelock + 1
            htlc.state = _REFUNDED
            htlc.resolved_round = round_no
            done.append((round_no, "refund", ci, hi))
            refunds += 1
            continue
        if htlc.hash != lock:
            raise PreimageMismatch(f"{htlc.sender}->{receiver}")
        htlc.state = _SETTLED
        htlc.resolved_round = round_no
        sender = htlc.sender
        channel = (sender, receiver)
        settled[channel] = settled.get(channel, 0) + htlc.amount
        done.append((round_no, "settle", ci, hi))
        # Preimages travel with settlements and land after the round.
        if sender not in learned:
            learned[sender] = round_no
            reveals.append((round_no, "reveal", ci, sender))

    if refunds == 0 < len(done):
        ex.status = CycleStatus.COMPLETED
    elif 0 < refunds == len(done):
        ex.status = CycleStatus.ABORTED
    else:
        states = sorted({h.state.value for h in ex.htlcs})
        raise PartialCycle(f"cycle {ex.cycle.vertices} ended {states}")
    return done, reveals


def run_execution(
    executions: list[CycleExecution], adversary: AdversarySpec | None = None
) -> tuple[Ledger, list[CycleStatus]]:
    """Drive all cycles through synchronous rounds until every HTLC resolves.

    Cycles never interact: each has its own secret, and shared channels
    carry one independent contract per cycle. So each cycle is resolved on
    its own, and its events go into per-round buckets in cycle order:
    first settlements and refunds, then the reveals those settlements
    cause. Returns the ledger and the final per-cycle statuses.
    """
    policies = (adversary or AdversarySpec.honest()).policies
    contracts = itertools.chain.from_iterable(ex.htlcs for ex in executions)
    horizon = max(map(operator.attrgetter("timelock"), contracts), default=0)
    resolved: list[list[Event]] = [[] for _ in range(horizon + 2)]
    revealed: list[list[Event]] = [[] for _ in range(horizon + 2)]
    settled: dict[tuple[NodeId, NodeId], int] = {}  # channel -> amount moved
    offset = 0
    for ci, ex in enumerate(executions):
        revealed[0].append((0, "reveal", ci, ex.initiator))
        done, reveals = _resolve_cycle(ci, ex, offset, policies, settled)
        for event in reversed(done):
            resolved[event[0]].append(event)
        for event in reversed(reveals):
            revealed[event[0]].append(event)
        offset += len(ex.htlcs)

    ledger = Ledger(rounds=horizon + 1)
    for channel, amount in settled.items():
        sender, receiver = channel
        paid = ledger.deltas.setdefault(sender, {})
        paid[channel] = paid.get(channel, 0) - amount
        got = ledger.deltas.setdefault(receiver, {})
        got[channel] = got.get(channel, 0) + amount
    for settled_or_refunded, reveals in zip(resolved, revealed):
        ledger.events += settled_or_refunded
        ledger.events += reveals
    return ledger, [ex.status for ex in executions]


# The renderers below produce exactly ``json.dumps(doc, indent=2) + "\n"``
# of the documents at the end of the module (see the renderer note in
# model.py); the two large ones yield it in chunks. ``events.json`` has no
# document of its own: its records are the events with the keys round,
# event, cycle, then htlc or node.


def events_json_chunks(ledger: Ledger) -> Iterator[str]:
    """Text of ``events.json`` in chunks of ``RECORDS_PER_CHUNK`` records."""
    return json_array_chunks(_event_blocks(ledger.events))


def _event_blocks(events: list[Event]) -> Iterator[str]:
    """The records of ``events``, ``RECORDS_PER_CHUNK`` to a block.

    A record is its head, the text up to the cycle number, then the cycle
    and the htlc index or node. The events come grouped by round and kind,
    so the head is looked up only where the (round, kind) changes, and
    each is made once.
    """
    names = JsonIds()
    heads: dict[tuple[int, str], str] = {}
    last_round = last_kind = head = reveal = None
    for start in range(0, len(events), RECORDS_PER_CHUNK):
        items = []
        append = items.append
        for round_no, kind, cycle, target in events[start : start + RECORDS_PER_CHUNK]:
            if round_no != last_round or kind != last_kind:
                last_round, last_kind = round_no, kind
                head = heads.get((round_no, kind))
                if head is None:
                    head = heads[round_no, kind] = (
                        f'{{\n    "round": {round_no},\n    "event": "{kind}",\n    "cycle": '
                    )
                reveal = kind == "reveal"
            if reveal:
                append(f'{head}{cycle},\n    "node": {names[target]}\n  }}')
            else:
                append(f'{head}{cycle},\n    "htlc": {target}\n  }}')
        yield ",\n  ".join(items)


def events_to_json(ledger: Ledger) -> str:
    """Text of ``events.json`` as one string."""
    return "".join(events_json_chunks(ledger))


def executions_json_chunks(executions: list[CycleExecution]) -> Iterator[str]:
    """Text of ``executions.json``, equal to dumping ``executions_to_json_dict``,
    one chunk per cycle."""
    return json_array_chunks(_execution_records(executions))


def _execution_records(executions: list[CycleExecution]) -> Iterator[str]:
    """The record of each cycle's execution.

    The contracts of a cycle share amount, lock and state, so the text of
    those fields is made once for the cycle; it is made again whenever a
    contract differs, so any contract renders correctly.
    """
    names = JsonIds()
    amount, lock, state, amount_and_hash, state_text = None, None, None, "", ""
    for ex in executions:
        htlcs = []
        for h in ex.htlcs:
            if h.amount != amount or h.hash != lock or h.state is not state:
                amount, lock, state = h.amount, h.hash, h.state
                amount_and_hash = f',\n        "amount": {amount},\n        "hash": "{lock.hex()}"'
                state_text = f',\n        "state": "{state.value}"'
            resolved = "null" if h.resolved_round is None else h.resolved_round
            htlcs.append(
                f'{{\n        "sender": {names[h.sender]},\n        "receiver": {names[h.receiver]}'
                f'{amount_and_hash},\n        "timelock": {h.timelock}{state_text},\n'
                f'        "resolved_round": {resolved}\n      }}'
            )
        yield (
            f'{{\n    "vertices": {json_array([names[v] for v in ex.cycle.vertices], "    ")},\n'
            f'    "weight": {ex.cycle.weight},\n    "initiator": {names[ex.initiator]},\n'
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
        out.append(
            {
                "vertices": list(ex.cycle.vertices),
                "weight": ex.cycle.weight,
                "initiator": ex.initiator,
                "status": ex.status.value,
                "htlcs": [
                    {
                        "sender": h.sender,
                        "receiver": h.receiver,
                        "amount": h.amount,
                        "hash": h.hash.hex(),
                        "timelock": h.timelock,
                        "state": h.state.value,
                        "resolved_round": h.resolved_round,
                    }
                    for h in ex.htlcs
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
