"""Synchronous-round simulator for per-cycle HTLC execution.

Each cycle gets its own secret and its own chain of HTLCs with timelocks
L, L-1, ..., 1 starting at a randomly chosen initiator. Settlement
cascades backward: claiming an HTLC requires the preimage and reveals it
to the contract's counterparty at the end of the round, so each hop
settles exactly at its deadline in the honest case.

Time is discrete: an HTLC with timelock t may settle in any round <= t and
refunds in round t+1. One settlement or message per round per contract.

Corrupted nodes follow small deterministic policies. Withholding applies
to secrets a node *owns*: an initiator that withholds never starts the
cascade (the whole cycle refunds); any other node has nothing of its own
to withhold and still claims funds it is entitled to, since refusing would
only donate its money to the cycle. Under these rules a cycle always ends
all-settled or all-refunded; a mixed outcome raises ``PartialCycle`` and
means the simulator itself is broken.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from enum import Enum

from .cycles import CycleFlow
from .model import ModelError, NodeId

SECRET_BYTES = 32


def digest(preimage: bytes) -> bytes:
    return hashlib.sha256(preimage).digest()


class PartialCycle(RuntimeError):
    """A cycle ended with a mix of settled and refunded contracts."""


class PreimageMismatch(RuntimeError):
    """Attempted settlement with a preimage that does not hash to the lock."""


class HtlcState(Enum):
    PENDING = "pending"
    SETTLED = "settled"
    REFUNDED = "refunded"


class CycleStatus(Enum):
    SETUP = "setup"
    SETTLING = "settling"
    COMPLETED = "completed"
    ABORTED = "aborted"


class Policy(Enum):
    HONEST = "honest"
    WITHHOLD_PREIMAGE = "withhold_preimage"
    DELAY_SETTLE_TO_EXPIRY = "delay_settle_to_expiry"


@dataclass
class HtlcContract:
    sender: NodeId
    receiver: NodeId
    amount: int
    hash: bytes
    timelock: int
    state: HtlcState = HtlcState.PENDING
    resolved_round: int | None = None

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


@dataclass
class CycleExecution:
    cycle: CycleFlow
    initiator: NodeId
    secret: bytes
    htlcs: list[HtlcContract]
    status: CycleStatus = CycleStatus.SETUP


@dataclass(frozen=True)
class AdversarySpec:
    """Per-node misbehavior. Nodes not listed are honest."""

    policies: dict[NodeId, Policy] = field(default_factory=dict)

    @property
    def corrupted(self) -> frozenset[NodeId]:
        return frozenset(
            v for v, p in self.policies.items() if p is not Policy.HONEST
        )

    def policy_of(self, node: NodeId) -> Policy:
        return self.policies.get(node, Policy.HONEST)

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
        try:
            policies[node] = Policy(name)
        except ValueError:
            raise ModelError(f"unknown policy {name!r} for {node}") from None
    return AdversarySpec(policies)


def make_execution(cycle: CycleFlow, initiator: NodeId, secret: bytes) -> CycleExecution:
    """Build the HTLC chain for a cycle from a chosen initiator and secret."""
    if initiator not in cycle.vertices:
        raise ValueError("initiator must lie on the cycle")
    length = len(cycle.vertices)
    start = cycle.vertices.index(initiator)
    order = [cycle.vertices[(start + i) % length] for i in range(length)]
    lock = digest(secret)
    htlcs = [
        HtlcContract(
            sender=order[i],
            receiver=order[(i + 1) % length],
            amount=cycle.weight,
            hash=lock,
            timelock=length - i,
        )
        for i in range(length)
    ]
    return CycleExecution(cycle=cycle, initiator=initiator, secret=secret, htlcs=htlcs)


def setup_cycle_htlcs(cycle: CycleFlow, rng_seed: int) -> CycleExecution:
    """Pick an initiator uniformly, sample a fresh secret, chain the HTLCs."""
    rng = random.Random(rng_seed)
    initiator = cycle.vertices[rng.randrange(len(cycle.vertices))]
    secret = rng.randbytes(SECRET_BYTES)
    return make_execution(cycle, initiator, secret)


@dataclass
class Ledger:
    """Settled amounts per node and channel, plus the event log."""

    deltas: dict[NodeId, dict[tuple[NodeId, NodeId], int]] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    rounds: int = 0

    def _apply(self, htlc: HtlcContract) -> None:
        channel = (htlc.sender, htlc.receiver)
        for node, sign in ((htlc.sender, -1), (htlc.receiver, +1)):
            per_channel = self.deltas.setdefault(node, {})
            per_channel[channel] = per_channel.get(channel, 0) + sign * htlc.amount


def net_balance_delta(ledger: Ledger, node: NodeId) -> int:
    return sum(ledger.deltas.get(node, {}).values())


def run_execution(
    executions: list[CycleExecution], adversary: AdversarySpec | None = None
) -> tuple[Ledger, list[CycleStatus]]:
    """Drive all cycles through synchronous rounds until every HTLC resolves.

    Cycles never interact: each has its own secret, and shared channels
    carry one independent contract per cycle. Returns the ledger and the
    final per-cycle statuses.
    """
    adversary = adversary or AdversarySpec.honest()
    ledger = Ledger()
    offsets: list[int] = []
    total = 0
    for ex in executions:
        offsets.append(total)
        total += len(ex.htlcs)

    knows: list[set[NodeId]] = []
    for ci, ex in enumerate(executions):
        ex.status = CycleStatus.SETTLING
        knows.append({ex.initiator})
        ledger.events.append(
            {"round": 0, "event": "reveal", "cycle": ci, "node": ex.initiator}
        )

    horizon = max((h.timelock for ex in executions for h in ex.htlcs), default=0)
    for round_no in range(1, horizon + 2):
        learned: list[tuple[int, NodeId]] = []
        for ci, ex in enumerate(executions):
            for hi, htlc in enumerate(ex.htlcs):
                if htlc.state is not HtlcState.PENDING:
                    continue
                if round_no > htlc.timelock:
                    htlc.refund(round_no)
                    ledger.events.append(
                        {
                            "round": round_no,
                            "event": "refund",
                            "cycle": ci,
                            "htlc": offsets[ci] + hi,
                        }
                    )
                    continue
                receiver = htlc.receiver
                if receiver not in knows[ci]:
                    continue
                policy = adversary.policy_of(receiver)
                if policy is Policy.WITHHOLD_PREIMAGE and receiver == ex.initiator:
                    continue  # never reveals its own secret
                if policy is Policy.DELAY_SETTLE_TO_EXPIRY and round_no < htlc.timelock:
                    continue
                htlc.settle(ex.secret, round_no)
                ledger._apply(htlc)
                ledger.events.append(
                    {
                        "round": round_no,
                        "event": "settle",
                        "cycle": ci,
                        "htlc": offsets[ci] + hi,
                    }
                )
                if htlc.sender not in knows[ci]:
                    learned.append((ci, htlc.sender))
        # Preimages travel with settlements and land after the round.
        for ci, node in learned:
            knows[ci].add(node)
            ledger.events.append(
                {"round": round_no, "event": "reveal", "cycle": ci, "node": node}
            )
        ledger.rounds = round_no

    statuses: list[CycleStatus] = []
    for ex in executions:
        states = {h.state for h in ex.htlcs}
        if states == {HtlcState.SETTLED}:
            ex.status = CycleStatus.COMPLETED
        elif states == {HtlcState.REFUNDED}:
            ex.status = CycleStatus.ABORTED
        else:
            raise PartialCycle(
                f"cycle {ex.cycle.vertices} ended {sorted(s.value for s in states)}"
            )
        statuses.append(ex.status)
    return ledger, statuses


def events_to_json(ledger: Ledger) -> str:
    return json.dumps(ledger.events, indent=2) + "\n"


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
