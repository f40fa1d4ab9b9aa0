"""HTLC execution, checked against the round-by-round reference.

The package keeps one record per cycle (``execution.CycleExecution``) and
decides each cycle whole. ``_reference_run_execution`` below is the
specification it must match: it builds one ``HtlcContract`` per hop and
drives every contract of every cycle through synchronous rounds.
"""

import itertools
import json
import re
from enum import Enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from pcnflow.cycles import CycleFlow
from pcnflow.execution import (
    AdversarySpec,
    CycleStatus,
    Ledger,
    PartialCycle,
    Policy,
    adversary_from_json_dict,
    digest,
    events_to_json,
    executions_json_chunks,
    executions_to_json_dict,
    ledger_to_json,
    ledger_to_json_dict,
    make_execution,
    net_balance_delta,
    run_execution,
    setup_cycle_htlcs,
)
from pcnflow.model import InvariantViolation, ModelError

TRIANGLE = CycleFlow(("A", "B", "C"), weight=4)


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def executions_to_json(executions) -> str:
    return "".join(executions_json_chunks(executions))


def _hops(ex) -> list[dict]:
    """The per-hop records ``executions.json`` holds for ``ex``."""
    return executions_to_json_dict([ex])[0]["htlcs"]


class HtlcState(Enum):
    PENDING = "pending"
    SETTLED = "settled"
    REFUNDED = "refunded"


class HtlcContract:
    """One hop of a cycle's chain, with the settle and refund rules."""

    def __init__(self, sender, receiver, amount, hash, timelock):
        self.sender = sender
        self.receiver = receiver
        self.amount = amount
        self.hash = hash
        self.timelock = timelock
        self.state = HtlcState.PENDING
        self.resolved_round = None

    def settle(self, preimage: bytes, round_no: int) -> None:
        if self.state is not HtlcState.PENDING:
            raise RuntimeError("contract already resolved")
        if digest(preimage) != self.hash:
            raise InvariantViolation(f"{self.sender}->{self.receiver}")
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


def _chain(ex) -> list[HtlcContract]:
    """The hops of ``ex``: from the initiator, timelocks L..1, one lock."""
    order = ex.order
    return [
        HtlcContract(sender, receiver, ex.cycle.weight, ex.lock, timelock)
        for sender, receiver, timelock in zip(
            order, order[1:] + order[:1], range(len(order), 0, -1)
        )
    ]


class Reference(NamedTuple):
    events: list[dict]  # the records of events.json
    deltas: dict
    rounds: int
    statuses: list[CycleStatus]
    executions: list[dict]  # the document of executions.json


def _reference_run_execution(executions, adversary=None, chains=None) -> Reference:
    """The specification of ``run_execution``: scan every contract of every
    cycle in every synchronous round, settlements and refunds first, then
    the reveals they cause at the end of the round. ``chains`` replaces the
    contracts of each execution's chain; the executions are not changed."""
    adversary = adversary or AdversarySpec.honest()
    chains = chains or [_chain(ex) for ex in executions]
    events, deltas = [], {}
    offsets = []
    total = 0
    for chain in chains:
        offsets.append(total)
        total += len(chain)

    knows = []
    for ci, ex in enumerate(executions):
        knows.append({ex.order[0]})
        events.append({"round": 0, "event": "reveal", "cycle": ci, "node": ex.order[0]})

    horizon = max((h.timelock for chain in chains for h in chain), default=0)
    for round_no in range(1, horizon + 2):
        learned = []
        for ci, (ex, chain) in enumerate(zip(executions, chains)):
            for hi, htlc in enumerate(chain):
                if htlc.state is not HtlcState.PENDING:
                    continue
                if round_no > htlc.timelock:
                    htlc.refund(round_no)
                    events.append(
                        {"round": round_no, "event": "refund", "cycle": ci,
                         "htlc": offsets[ci] + hi}
                    )
                    continue
                receiver = htlc.receiver
                if receiver not in knows[ci]:
                    continue
                policy = adversary.policies.get(receiver, Policy.HONEST)
                if policy is Policy.WITHHOLD_PREIMAGE and receiver == ex.order[0]:
                    continue
                if policy is Policy.DELAY_SETTLE_TO_EXPIRY and round_no < htlc.timelock:
                    continue
                htlc.settle(ex.secret, round_no)
                channel = (htlc.sender, receiver)
                paid = deltas.setdefault(htlc.sender, {})
                paid[channel] = paid.get(channel, 0) - htlc.amount
                got = deltas.setdefault(receiver, {})
                got[channel] = got.get(channel, 0) + htlc.amount
                events.append(
                    {"round": round_no, "event": "settle", "cycle": ci, "htlc": offsets[ci] + hi}
                )
                if htlc.sender not in knows[ci]:
                    learned.append((ci, htlc.sender))
        for ci, node in learned:
            knows[ci].add(node)
            events.append({"round": round_no, "event": "reveal", "cycle": ci, "node": node})

    statuses, documents = [], []
    for ex, chain in zip(executions, chains):
        states = {h.state for h in chain}
        if states == {HtlcState.SETTLED}:
            status = CycleStatus.COMPLETED
        elif states == {HtlcState.REFUNDED}:
            status = CycleStatus.ABORTED
        else:
            raise PartialCycle(f"cycle {ex.cycle.vertices} ended {sorted(states, key=str)}")
        statuses.append(status)
        documents.append({
            "vertices": list(ex.cycle.vertices),
            "weight": ex.cycle.weight,
            "initiator": ex.order[0],
            "status": status.value,
            "htlcs": [
                {"sender": h.sender, "receiver": h.receiver, "amount": h.amount,
                 "hash": h.hash.hex(), "timelock": h.timelock, "state": h.state.value,
                 "resolved_round": h.resolved_round}
                for h in chain
            ],
        })
    return Reference(events, deltas, horizon + 1, statuses, documents)


def assert_matches_reference(executions, adversary=None) -> Ledger:
    """Run ``executions`` and require the reference's outcomes and the
    same text in all three execution artifacts."""
    want = _reference_run_execution(executions, adversary)
    ledger, statuses = run_execution(executions, adversary)
    assert statuses == want.statuses
    assert events_to_json(ledger) == _dumped(want.events)
    assert ledger.events == want.events
    assert ledger.rounds == want.rounds
    assert ledger.deltas == want.deltas
    assert ledger_to_json(ledger) == _dumped(ledger_to_json_dict(Ledger(want.deltas, want.rounds)))
    assert executions_to_json(executions) == _dumped(want.executions)
    assert executions_to_json_dict(executions) == want.executions
    return ledger


class TestSetup:
    def test_three_cycle_layout(self):
        ex = make_execution(TRIANGLE, "A", b"\x01" * 32)
        assert ex.order == ("A", "B", "C") and ex.lock == digest(b"\x01" * 32)
        run_execution([ex])
        hops = _hops(ex)
        assert [(h["sender"], h["receiver"], h["timelock"]) for h in hops] == [
            ("A", "B", 3),
            ("B", "C", 2),
            ("C", "A", 1),
        ]
        assert {h["hash"] for h in hops} == {ex.lock.hex()}
        assert all(h["amount"] == 4 for h in hops)

    def test_two_cycle_timelocks(self):
        ex = make_execution(CycleFlow(("A", "B"), 1), "A", b"\x02" * 32)
        run_execution([ex])
        assert [h["timelock"] for h in _hops(ex)] == [2, 1]

    def test_setup_is_deterministic(self):
        a = setup_cycle_htlcs(TRIANGLE, rng_seed=99)
        b = setup_cycle_htlcs(TRIANGLE, rng_seed=99)
        assert (a.order, a.secret, a.lock) == (b.order, b.secret, b.lock)

    def test_initiator_varies_with_seed(self):
        initiators = {setup_cycle_htlcs(TRIANGLE, s).order[0] for s in range(30)}
        assert initiators == {"A", "B", "C"}

    def test_mid_cycle_initiator_rotates_chain(self):
        ex = make_execution(TRIANGLE, "B", b"\x03" * 32)
        run_execution([ex])
        assert [(h["sender"], h["receiver"]) for h in _hops(ex)] == [
            ("B", "C"),
            ("C", "A"),
            ("A", "B"),
        ]

    def test_initiator_must_be_on_cycle(self):
        with pytest.raises(ModelError, match="^initiator must lie on the cycle$"):
            make_execution(TRIANGLE, "Z", b"\x00" * 32)


class TestHonestRuns:
    def test_single_cycle_completes_with_zero_deltas(self):
        ex = make_execution(TRIANGLE, "A", b"\x04" * 32)
        ledger, statuses = run_execution([ex])
        assert statuses == [CycleStatus.COMPLETED]
        for node in "ABC":
            assert net_balance_delta(ledger, node) == 0

    def test_settlements_land_exactly_at_deadlines(self):
        ex = make_execution(TRIANGLE, "A", b"\x05" * 32)
        run_execution([ex])
        assert [(h["state"], h["resolved_round"]) for h in _hops(ex)] == [
            ("settled", 3), ("settled", 2), ("settled", 1)
        ]

    def test_node_outside_cycles_has_zero_delta(self):
        ex = make_execution(TRIANGLE, "A", b"\x06" * 32)
        ledger, _ = run_execution([ex])
        assert net_balance_delta(ledger, "Z") == 0

    def test_event_log_is_deterministic(self):
        run1, _ = run_execution([make_execution(TRIANGLE, "A", b"\x07" * 32)])
        run2, _ = run_execution([make_execution(TRIANGLE, "A", b"\x07" * 32)])
        want = _reference_run_execution([make_execution(TRIANGLE, "A", b"\x07" * 32)])
        assert run1.events == run2.events
        assert events_to_json(run1) == _dumped(want.events)
        kinds = {e["event"] for e in want.events}
        assert kinds == {"reveal", "settle"}


class TestAdversaries:
    def test_withholding_initiator_aborts_everything(self):
        ex = make_execution(TRIANGLE, "B", b"\x08" * 32)
        adversary = AdversarySpec({"B": Policy.WITHHOLD_PREIMAGE})
        ledger, statuses = run_execution([ex], adversary)
        assert statuses == [CycleStatus.ABORTED]
        assert [(h["state"], h["resolved_round"]) for h in _hops(ex)] == [
            ("refunded", 4), ("refunded", 3), ("refunded", 2)
        ]
        for node in "ABC":
            assert net_balance_delta(ledger, node) == 0

    def test_withholding_elsewhere_cannot_break_the_cycle(self):
        # Only the secret's owner can suppress it; everyone else still
        # claims funds they are entitled to.
        ex = make_execution(TRIANGLE, "A", b"\x09" * 32)
        adversary = AdversarySpec({"B": Policy.WITHHOLD_PREIMAGE})
        _, statuses = run_execution([ex], adversary)
        assert statuses == [CycleStatus.COMPLETED]

    def test_disjoint_cycles_are_independent(self):
        other = CycleFlow(("X", "Y", "Z"), weight=1)
        for policy in (Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY):
            ex1 = make_execution(TRIANGLE, "B", b"\x0a" * 32)
            ex2 = make_execution(other, "X", b"\x0b" * 32)
            adversary = AdversarySpec({"B": policy})
            ledger, statuses = run_execution([ex1, ex2], adversary)
            assert statuses[1] is CycleStatus.COMPLETED
            expected = (
                CycleStatus.ABORTED
                if policy is Policy.WITHHOLD_PREIMAGE
                else CycleStatus.COMPLETED
            )
            assert statuses[0] is expected
            for node in "ABCXYZ":
                assert net_balance_delta(ledger, node) == 0

    def test_delay_to_expiry_still_completes(self):
        ex = make_execution(TRIANGLE, "A", b"\x0c" * 32)
        adversary = AdversarySpec({"B": Policy.DELAY_SETTLE_TO_EXPIRY})
        _, statuses = run_execution([ex], adversary)
        assert statuses == [CycleStatus.COMPLETED]

    @pytest.mark.parametrize(
        "cycle",
        [
            CycleFlow(("A", "B"), 2),
            TRIANGLE,
            CycleFlow(("A", "B", "C", "D"), 3),
        ],
        ids=["len2", "len3", "len4"],
    )
    def test_exhaustive_model_check(self, cycle):
        """Every corruption subset x policy map x initiator: the round-by-round
        reference ends atomic (it raises PartialCycle otherwise) and zero-sum,
        and the per-cycle run matches it."""
        nodes = cycle.vertices
        policies = (Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY)
        runs = 0
        for assignment in itertools.product((None,) + policies, repeat=len(nodes)):
            adversary = AdversarySpec(
                {v: p for v, p in zip(nodes, assignment) if p is not None}
            )
            for initiator in nodes:
                ex = make_execution(cycle, initiator, b"\x0d" * 32)
                ledger = assert_matches_reference([ex], adversary)
                assert ex.status in (CycleStatus.COMPLETED, CycleStatus.ABORTED)
                assert max(h["timelock"] for h in _hops(ex)) == len(cycle.vertices)
                for v in nodes:
                    assert net_balance_delta(ledger, v) == 0
                runs += 1
        assert runs == 3 ** len(nodes) * len(nodes)


_LOCK_NOT_OPENED = "^cycle {}: the secret does not open the lock$"


class TestPreimageSecurity:
    def test_wrong_preimage_rejected(self):
        ex = make_execution(TRIANGLE, "A", b"\x0e" * 32)
        with pytest.raises(InvariantViolation, match="^C->A$"):
            _chain(ex)[2].settle(b"\x0f" * 32, round_no=1)

    def test_tampered_secret_cannot_settle_anything(self):
        ex = make_execution(TRIANGLE, "A", b"\x10" * 32)
        ex.secret = b"\x11" * 32  # no longer matches the lock
        vertices = re.escape(str(TRIANGLE.vertices))
        with pytest.raises(InvariantViolation, match=_LOCK_NOT_OPENED.format(vertices)):
            run_execution([ex])
        with pytest.raises(InvariantViolation, match="^C->A$"):
            _reference_run_execution([ex])

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_tampered_lock_on_one_contract_is_rejected(self, index):
        """Every hop of a cycle is locked under the cycle's one lock; a
        tampered lock on any one of three cycles is rejected."""
        executions = [
            make_execution(c, c.vertices[0], bytes([0x14 + i]) * 32)
            for i, c in enumerate([TRIANGLE, CycleFlow(("X", "Y"), 1), CycleFlow(("A", "X"), 2)])
        ]
        executions[index].lock = digest(b"\xff" * 32)
        order = executions[index].order
        vertices = re.escape(str(executions[index].cycle.vertices))
        with pytest.raises(InvariantViolation, match=_LOCK_NOT_OPENED.format(vertices)):
            run_execution(executions)
        with pytest.raises(InvariantViolation, match=f"^{order[-1]}->{order[0]}$"):
            _reference_run_execution(executions)

    def test_withheld_secret_is_never_presented(self):
        # An aborting cycle refunds without a preimage, so its lock is not
        # opened and a mismatch goes unnoticed, in the reference too.
        ex = make_execution(TRIANGLE, "A", b"\x19" * 32)
        ex.secret = b"\x1a" * 32
        assert_matches_reference([ex], AdversarySpec({"A": Policy.WITHHOLD_PREIMAGE}))

    @pytest.mark.parametrize("resolve", ["settle", "refund"])
    def test_contract_resolved_before_the_run_is_rejected(self, resolve):
        """A cycle whose hops already settled or refunded cannot run again,
        alone or listed twice."""
        adversary = AdversarySpec({"A": Policy.WITHHOLD_PREIMAGE} if resolve == "refund" else {})
        ex = make_execution(TRIANGLE, "A", b"\x16" * 32)
        run_execution([ex], adversary)
        with pytest.raises(InvariantViolation, match="^execution already resolved$"):
            run_execution([ex], adversary)
        twice = make_execution(TRIANGLE, "A", b"\x16" * 32)
        with pytest.raises(InvariantViolation, match="^execution already resolved$"):
            run_execution([twice, twice], adversary)

    def test_settle_guards(self):
        ex = make_execution(TRIANGLE, "A", b"\x17" * 32)
        late, done = _chain(ex)[:2]
        with pytest.raises(RuntimeError, match="settlement after expiry"):
            late.settle(ex.secret, round_no=late.timelock + 1)
        assert late.state is HtlcState.PENDING
        done.settle(ex.secret, round_no=done.timelock)
        with pytest.raises(RuntimeError, match="contract already resolved"):
            done.settle(ex.secret, round_no=done.timelock)

    def test_refund_guards(self):
        ex = make_execution(TRIANGLE, "A", b"\x18" * 32)
        early, done = _chain(ex)[:2]
        for round_no in (1, early.timelock):
            with pytest.raises(RuntimeError, match="refund before expiry"):
                early.refund(round_no)
        assert early.state is HtlcState.PENDING
        done.refund(done.timelock + 1)
        with pytest.raises(RuntimeError, match="contract already resolved"):
            done.refund(done.timelock + 2)

    def test_digest_is_sha256(self):
        import hashlib

        assert digest(b"x") == hashlib.sha256(b"x").digest()


class TestAdversaryJson:
    def test_parse(self):
        spec = adversary_from_json_dict(
            {"policies": {"B": "withhold_preimage", "C": "delay_settle_to_expiry"}}
        )
        assert spec.policies == {
            "B": Policy.WITHHOLD_PREIMAGE, "C": Policy.DELAY_SETTLE_TO_EXPIRY
        }

    def test_unknown_policy_rejected(self):
        with pytest.raises(ModelError):
            adversary_from_json_dict({"policies": {"B": "grief"}})


# Node ids from a small shared pool, so cycles overlap; some are not ASCII.
NODES = [*"ABCDEFGHIJKL", "ü", "節点", "\U0001f4b8", 'q"\\']
POLICY = st.sampled_from([None, Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY])


@st.composite
def executions_and_adversary(draw):
    executions = []
    for i in range(draw(st.integers(0, 6))):
        vertices = draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=12, unique=True))
        cycle = CycleFlow(tuple(vertices), draw(st.integers(1, 2**40)))
        initiator = draw(st.sampled_from(vertices))
        executions.append(make_execution(cycle, initiator, bytes([i]) * 32))
    policies = draw(st.dictionaries(st.sampled_from(NODES), POLICY))
    adversary = AdversarySpec({v: p for v, p in policies.items() if p is not None})
    return executions, adversary


class TestAgainstReference:
    @settings(max_examples=300)
    @given(executions_and_adversary())
    def test_same_events_ledger_and_outcomes(self, case):
        executions, adversary = case
        assert_matches_reference(executions, adversary)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("withholding", [False, True], ids=["honest", "withholding"])
    def test_real_decompositions(self, seed, withholding):
        """The pipeline's own setup on decomposed optima of 60-node,
        200-edge instances, far beyond the strategy's sizes; with
        ``withholding`` every third node withholds."""
        from pcnflow.cli import generate_instance
        from pcnflow.cycles import decompose
        from pcnflow.model import child_seed
        from pcnflow.solver import solve_rebalancing

        instance = generate_instance(60, 200, 2**20, 1, seed)
        cycles = decompose(solve_rebalancing(instance).circulation).cycles
        executions = [setup_cycle_htlcs(c, child_seed(seed, "cycle", i)) for i, c in enumerate(cycles)]
        adversary = AdversarySpec(
            {v: Policy.WITHHOLD_PREIMAGE for v in instance.nodes[::3]} if withholding else {}
        )
        assert_matches_reference(executions, adversary)
        assert len(cycles) > 10 and max(map(len, (c.vertices for c in cycles))) > 12
        assert (CycleStatus.ABORTED in (ex.status for ex in executions)) == withholding

    def test_mixed_outcome_raises(self):
        """Only a chain off the L..1 timelocks can end mixed, which is why
        one status per cycle is a complete record: hop 0 expiring in round 1
        refunds before B learns the preimage, and the reference raises."""
        ex = make_execution(TRIANGLE, "A", b"\x13" * 32)
        chain = _chain(ex)
        chain[0].timelock = 1
        with pytest.raises(PartialCycle):
            _reference_run_execution([ex], chains=[chain])

    def test_empty_list_takes_one_round(self):
        ledger, statuses = run_execution([])
        assert (ledger.events, ledger.rounds, statuses) == ([], 1, [])
        assert ledger.rounds == _reference_run_execution([]).rounds


class TestDelayPolicy:
    @settings(max_examples=300)
    @given(executions_and_adversary())
    def test_delay_to_expiry_changes_nothing(self, case):
        """On an L..1 chain every honest hop already settles at its
        timelock: with no delay policy, as drawn, or with every node that
        does not withhold delaying, the reference runs are identical."""
        executions, adversary = case
        policies, delay = adversary.policies, Policy.DELAY_SETTLE_TO_EXPIRY
        specs = [
            AdversarySpec({v: p for v, p in policies.items() if p is not delay}),
            adversary,
            AdversarySpec({v: policies.get(v, delay) for v in NODES}),
        ]
        runs = [_reference_run_execution(executions, spec) for spec in specs]
        assert runs[0] == runs[1] == runs[2]


class TestEmitters:
    @settings(max_examples=60)
    @given(executions_and_adversary())
    def test_match_json_dumps(self, case):
        executions, adversary = case
        run_execution(executions, adversary)
        assert executions_to_json(executions) == _dumped(executions_to_json_dict(executions))

    def test_non_ascii_ids_are_escaped(self):
        ex = make_execution(CycleFlow(("ü", "B"), 2), "ü", b"\x12" * 32)
        run_execution([ex])
        text = executions_to_json([ex])
        assert '"\\u00fc"' in text
        assert text == json.dumps(executions_to_json_dict([ex]), indent=2) + "\n"

    def test_empty(self):
        assert executions_to_json([]) == "[]\n"
        assert events_to_json(Ledger()) == "[]\n"
