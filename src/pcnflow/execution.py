"""Synchronous-round HTLC execution, computed one cycle at a time.

Each cycle gets its own secret and its own chain of HTLCs with timelocks
L, L-1, ..., 1 starting at a randomly chosen initiator. Settlement
cascades backward: claiming an HTLC requires the preimage and reveals it
to the contract's counterparty at the end of the round, so each hop
settles exactly at its deadline in the honest case.

Time is discrete: an HTLC with timelock t may settle in any round <= t and
refunds in round t+1. One settlement or message per round per contract.

Cycles never interact and each is a single chain, so no round is scanned:
one backward walk over a chain gives the settle or refund round of each of
its contracts in O(L). The events are merged into the order a
round-by-round run gives: by round, settlements and refunds before the
reveals they cause, then by cycle and contract.

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
import random
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii

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
        paid = self.deltas.setdefault(htlc.sender, {})
        paid[channel] = paid.get(channel, 0) - htlc.amount
        got = self.deltas.setdefault(htlc.receiver, {})
        got[channel] = got.get(channel, 0) + htlc.amount


def net_balance_delta(ledger: Ledger, node: NodeId) -> int:
    return sum(ledger.deltas.get(node, {}).values())


def _settle_rounds(ex: CycleExecution, adversary: AdversarySpec) -> list[int | None]:
    """Round in which each contract of one cycle settles, None if it refunds.

    Walks the chain backwards from the contract that pays the initiator.
    Contract j pays the sender of contract j+1, which learns the preimage
    at the end of the round in which j+1 settles, so it may claim j from
    the next round on, and only until j's timelock.
    """
    learned = {ex.initiator: 0}  # node -> round at whose end it knew
    rounds: list[int | None] = [None] * len(ex.htlcs)
    for hi in range(len(ex.htlcs) - 1, -1, -1):
        htlc = ex.htlcs[hi]
        receiver = htlc.receiver
        if receiver not in learned:
            continue
        policy = adversary.policy_of(receiver)
        if policy is Policy.WITHHOLD_PREIMAGE and receiver == ex.initiator:
            continue  # never reveals its own secret
        round_no = learned[receiver] + 1
        if policy is Policy.DELAY_SETTLE_TO_EXPIRY:
            round_no = max(round_no, htlc.timelock)
        if round_no <= htlc.timelock:
            rounds[hi] = round_no
            learned.setdefault(htlc.sender, round_no)
    return rounds


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
    adversary = adversary or AdversarySpec.honest()
    ledger = Ledger()
    horizon = max((h.timelock for ex in executions for h in ex.htlcs), default=0)
    resolved: list[list[dict]] = [[] for _ in range(horizon + 2)]
    revealed: list[list[dict]] = [[] for _ in range(horizon + 2)]
    offset = 0
    for ci, ex in enumerate(executions):
        ex.status = CycleStatus.SETTLING
        revealed[0].append({"round": 0, "event": "reveal", "cycle": ci, "node": ex.initiator})
        knows = {ex.initiator}
        for hi, (htlc, round_no) in enumerate(zip(ex.htlcs, _settle_rounds(ex, adversary))):
            if round_no is None:
                round_no = htlc.timelock + 1
                htlc.refund(round_no)
                resolved[round_no].append(
                    {"round": round_no, "event": "refund", "cycle": ci, "htlc": offset + hi}
                )
                continue
            htlc.settle(ex.secret, round_no)
            ledger._apply(htlc)
            resolved[round_no].append(
                {"round": round_no, "event": "settle", "cycle": ci, "htlc": offset + hi}
            )
            # Preimages travel with settlements and land after the round.
            if htlc.sender not in knows:
                knows.add(htlc.sender)
                revealed[round_no].append(
                    {"round": round_no, "event": "reveal", "cycle": ci, "node": htlc.sender}
                )
        offset += len(ex.htlcs)
    for settled_or_refunded, reveals in zip(resolved, revealed):
        ledger.events += settled_or_refunded
        ledger.events += reveals
    ledger.rounds = horizon + 1

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


# The two large artifacts are written directly: any ``indent`` sends
# ``json.dumps`` to its pure-Python encoder. Both emitters produce exactly
# ``json.dumps(doc, indent=2) + "\n"`` of the documents below.


def _list_text(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


_EVENT = '{\n    "round": %d,\n    "event": "%s",\n    "cycle": %d,\n    "%s": %s\n  }'


def events_to_json(ledger: Ledger) -> str:
    """Text of ``events.json``, equal to dumping ``ledger.events``.

    Every event is the flat record ``run_execution`` writes: round, event
    and cycle, then the contract index or the revealed node.
    """
    items = []
    for event in ledger.events:
        (_, round_no), (_, kind), (_, cycle), (key, value) = event.items()
        last = value if type(value) is int else encode_basestring_ascii(value)
        items.append(_EVENT % (round_no, kind, cycle, key, last))
    return _list_text(items, "") + "\n"


def _htlc_text(h: HtlcContract) -> str:
    resolved = "null" if h.resolved_round is None else h.resolved_round
    return (
        "{\n"
        f'        "sender": {encode_basestring_ascii(h.sender)},\n'
        f'        "receiver": {encode_basestring_ascii(h.receiver)},\n'
        f'        "amount": {h.amount},\n'
        f'        "hash": "{h.hash.hex()}",\n'
        f'        "timelock": {h.timelock},\n'
        f'        "state": "{h.state.value}",\n'
        f'        "resolved_round": {resolved}\n'
        "      }"
    )


def executions_to_json(executions: list[CycleExecution]) -> str:
    """Text of ``executions.json``, equal to dumping ``executions_to_json_dict``."""
    cycles = []
    for ex in executions:
        vertices = _list_text([encode_basestring_ascii(v) for v in ex.cycle.vertices], "    ")
        htlcs = _list_text([_htlc_text(h) for h in ex.htlcs], "    ")
        cycles.append(
            "{\n"
            f'    "vertices": {vertices},\n'
            f'    "weight": {ex.cycle.weight},\n'
            f'    "initiator": {encode_basestring_ascii(ex.initiator)},\n'
            f'    "status": "{ex.status.value}",\n'
            f'    "htlcs": {htlcs}\n'
            "  }"
        )
    return _list_text(cycles, "") + "\n"


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
