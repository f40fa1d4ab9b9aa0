import copy
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from pcnflow.cycles import CycleFlow
from pcnflow.execution import (
    AdversarySpec,
    CycleStatus,
    HtlcState,
    Ledger,
    PartialCycle,
    Policy,
    PreimageMismatch,
    adversary_from_json_dict,
    digest,
    events_to_json,
    executions_json_chunks,
    executions_to_json_dict,
    ledger_to_json_dict,
    make_execution,
    net_balance_delta,
    run_execution,
    setup_cycle_htlcs,
)

TRIANGLE = CycleFlow(("A", "B", "C"), weight=4)


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def executions_to_json(executions) -> str:
    return "".join(executions_json_chunks(executions))


def _apply(ledger, htlc):
    """Book one settled contract on both of its ends."""
    channel = (htlc.sender, htlc.receiver)
    paid = ledger.deltas.setdefault(htlc.sender, {})
    paid[channel] = paid.get(channel, 0) - htlc.amount
    got = ledger.deltas.setdefault(htlc.receiver, {})
    got[channel] = got.get(channel, 0) + htlc.amount


def _reference_run_execution(executions, adversary=None):
    """The specification of ``run_execution``: scan every contract of every
    cycle in every synchronous round, settlements and refunds first, then
    the reveals they cause at the end of the round. Its events are the
    records of ``events.json``."""
    adversary = adversary or AdversarySpec.honest()
    ledger = Ledger()
    offsets = []
    total = 0
    for ex in executions:
        offsets.append(total)
        total += len(ex.htlcs)

    knows = []
    for ci, ex in enumerate(executions):
        knows.append({ex.initiator})
        ledger.events.append({"round": 0, "event": "reveal", "cycle": ci, "node": ex.initiator})

    horizon = max((h.timelock for ex in executions for h in ex.htlcs), default=0)
    for round_no in range(1, horizon + 2):
        learned = []
        for ci, ex in enumerate(executions):
            for hi, htlc in enumerate(ex.htlcs):
                if htlc.state is not HtlcState.PENDING:
                    continue
                if round_no > htlc.timelock:
                    htlc.refund(round_no)
                    ledger.events.append(
                        {"round": round_no, "event": "refund", "cycle": ci,
                         "htlc": offsets[ci] + hi}
                    )
                    continue
                receiver = htlc.receiver
                if receiver not in knows[ci]:
                    continue
                policy = adversary.policies.get(receiver, Policy.HONEST)
                if policy is Policy.WITHHOLD_PREIMAGE and receiver == ex.initiator:
                    continue
                if policy is Policy.DELAY_SETTLE_TO_EXPIRY and round_no < htlc.timelock:
                    continue
                htlc.settle(ex.secret, round_no)
                _apply(ledger, htlc)
                ledger.events.append(
                    {"round": round_no, "event": "settle", "cycle": ci, "htlc": offsets[ci] + hi}
                )
                if htlc.sender not in knows[ci]:
                    learned.append((ci, htlc.sender))
        for ci, node in learned:
            knows[ci].add(node)
            ledger.events.append({"round": round_no, "event": "reveal", "cycle": ci, "node": node})
        ledger.rounds = round_no

    statuses = []
    for ex in executions:
        states = {h.state for h in ex.htlcs}
        if states == {HtlcState.SETTLED}:
            ex.status = CycleStatus.COMPLETED
        elif states == {HtlcState.REFUNDED}:
            ex.status = CycleStatus.ABORTED
        else:
            raise PartialCycle(f"cycle {ex.cycle.vertices} ended {sorted(states, key=str)}")
        statuses.append(ex.status)
    return ledger, statuses


class TestSetup:
    def test_three_cycle_layout(self):
        ex = make_execution(TRIANGLE, "A", b"\x01" * 32)
        assert [(h.sender, h.receiver, h.timelock) for h in ex.htlcs] == [
            ("A", "B", 3),
            ("B", "C", 2),
            ("C", "A", 1),
        ]
        assert len({h.hash for h in ex.htlcs}) == 1
        assert all(h.amount == 4 for h in ex.htlcs)

    def test_two_cycle_timelocks(self):
        ex = make_execution(CycleFlow(("A", "B"), 1), "A", b"\x02" * 32)
        assert [h.timelock for h in ex.htlcs] == [2, 1]

    def test_setup_is_deterministic(self):
        a = setup_cycle_htlcs(TRIANGLE, rng_seed=99)
        b = setup_cycle_htlcs(TRIANGLE, rng_seed=99)
        assert a.initiator == b.initiator
        assert a.secret == b.secret
        assert [(h.sender, h.receiver, h.timelock) for h in a.htlcs] == [
            (h.sender, h.receiver, h.timelock) for h in b.htlcs
        ]

    def test_initiator_varies_with_seed(self):
        initiators = {setup_cycle_htlcs(TRIANGLE, s).initiator for s in range(30)}
        assert initiators == {"A", "B", "C"}

    def test_mid_cycle_initiator_rotates_chain(self):
        ex = make_execution(TRIANGLE, "B", b"\x03" * 32)
        assert [(h.sender, h.receiver) for h in ex.htlcs] == [
            ("B", "C"),
            ("C", "A"),
            ("A", "B"),
        ]

    def test_initiator_must_be_on_cycle(self):
        with pytest.raises(ValueError):
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
        assert [h.resolved_round for h in ex.htlcs] == [3, 2, 1]

    def test_node_outside_cycles_has_zero_delta(self):
        ex = make_execution(TRIANGLE, "A", b"\x06" * 32)
        ledger, _ = run_execution([ex])
        assert net_balance_delta(ledger, "Z") == 0

    def test_event_log_is_deterministic(self):
        run1, _ = run_execution([make_execution(TRIANGLE, "A", b"\x07" * 32)])
        run2, _ = run_execution([make_execution(TRIANGLE, "A", b"\x07" * 32)])
        want, _ = _reference_run_execution([make_execution(TRIANGLE, "A", b"\x07" * 32)])
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
        assert all(h.state is HtlcState.REFUNDED for h in ex.htlcs)
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
        """Every corruption subset x policy map x initiator: atomic, zero-sum."""
        nodes = cycle.vertices
        policies = (Policy.WITHHOLD_PREIMAGE, Policy.DELAY_SETTLE_TO_EXPIRY)
        runs = 0
        for assignment in itertools.product((None,) + policies, repeat=len(nodes)):
            adversary = AdversarySpec(
                {v: p for v, p in zip(nodes, assignment) if p is not None}
            )
            for initiator in nodes:
                ex = make_execution(cycle, initiator, b"\x0d" * 32)
                ledger, statuses = run_execution([ex], adversary)  # PartialCycle would raise
                assert statuses[0] in (CycleStatus.COMPLETED, CycleStatus.ABORTED)
                assert max(h.timelock for h in ex.htlcs) == len(cycle.vertices)
                for v in nodes:
                    assert net_balance_delta(ledger, v) == 0
                runs += 1
        assert runs == 3 ** len(nodes) * len(nodes)


class TestPreimageSecurity:
    def test_wrong_preimage_rejected(self):
        ex = make_execution(TRIANGLE, "A", b"\x0e" * 32)
        with pytest.raises(PreimageMismatch):
            ex.htlcs[2].settle(b"\x0f" * 32, round_no=1)

    def test_tampered_secret_cannot_settle_anything(self):
        ex = make_execution(TRIANGLE, "A", b"\x10" * 32)
        ex.secret = b"\x11" * 32  # no longer matches the locks
        with pytest.raises(PreimageMismatch):
            run_execution([ex])

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_tampered_lock_on_one_contract_is_rejected(self, index):
        ex = make_execution(TRIANGLE, "A", b"\x14" * 32)
        ex.htlcs[index].hash = digest(b"\x15" * 32)
        with pytest.raises(PreimageMismatch):
            run_execution([ex])

    @pytest.mark.parametrize("resolve", ["settle", "refund"])
    def test_contract_resolved_before_the_run_is_rejected(self, resolve):
        ex = make_execution(TRIANGLE, "A", b"\x16" * 32)
        if resolve == "settle":
            ex.htlcs[1].settle(ex.secret, round_no=1)
        else:
            ex.htlcs[1].refund(round_no=3)
        with pytest.raises(RuntimeError, match="contract already resolved"):
            run_execution([ex])

    def test_settle_guards(self):
        ex = make_execution(TRIANGLE, "A", b"\x17" * 32)
        late, done = ex.htlcs[0], ex.htlcs[1]
        with pytest.raises(RuntimeError, match="settlement after expiry"):
            late.settle(ex.secret, round_no=late.timelock + 1)
        assert late.state is HtlcState.PENDING
        done.settle(ex.secret, round_no=done.timelock)
        with pytest.raises(RuntimeError, match="contract already resolved"):
            done.settle(ex.secret, round_no=done.timelock)

    def test_refund_guards(self):
        ex = make_execution(TRIANGLE, "A", b"\x18" * 32)
        early, done = ex.htlcs[0], ex.htlcs[1]
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
        from pcnflow.model import ModelError

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


def _copies(executions):
    return [make_execution(ex.cycle, ex.initiator, ex.secret) for ex in executions]


class TestAgainstReference:
    @settings(max_examples=300)
    @given(executions_and_adversary())
    def test_same_events_ledger_and_outcomes(self, case):
        executions, adversary = case
        expected = _copies(executions)
        want_ledger, want_statuses = _reference_run_execution(expected, adversary)
        ledger, statuses = run_execution(executions, adversary)
        assert statuses == want_statuses
        assert events_to_json(ledger) == _dumped(want_ledger.events)
        assert ledger.rounds == want_ledger.rounds
        assert ledger.deltas == want_ledger.deltas
        assert ledger_to_json_dict(ledger) == ledger_to_json_dict(want_ledger)
        assert executions_to_json_dict(executions) == executions_to_json_dict(expected)

    @settings(max_examples=200)
    @given(executions_and_adversary(), st.data())
    def test_same_outcome_under_arbitrary_timelocks(self, case, data):
        """Timelocks off the L..1 chain can end a cycle mixed: then both raise."""
        executions, adversary = case
        for ex in executions:
            for h in ex.htlcs:
                h.timelock = data.draw(st.integers(1, 13))
        expected = copy.deepcopy(executions)
        try:
            want_ledger, want_statuses = _reference_run_execution(expected, adversary)
        except PartialCycle:
            with pytest.raises(PartialCycle):
                run_execution(executions, adversary)
            return
        ledger, statuses = run_execution(executions, adversary)
        assert statuses == want_statuses
        assert events_to_json(ledger) == _dumped(want_ledger.events)
        assert ledger.rounds == want_ledger.rounds
        assert ledger.deltas == want_ledger.deltas
        assert executions_to_json_dict(executions) == executions_to_json_dict(expected)

    def test_mixed_outcome_raises(self):
        ex = make_execution(TRIANGLE, "A", b"\x13" * 32)
        ex.htlcs[0].timelock = 1  # B learns the preimage after this expires
        with pytest.raises(PartialCycle):
            run_execution([ex])

    def test_empty_list_takes_one_round(self):
        ledger, statuses = run_execution([])
        assert (ledger.events, ledger.rounds, statuses) == ([], 1, [])
        assert ledger.rounds == _reference_run_execution([])[0].rounds


class TestDelayPolicy:
    @settings(max_examples=300)
    @given(executions_and_adversary())
    def test_delay_to_expiry_changes_nothing(self, case):
        """On an L..1 chain every honest hop already settles at its
        timelock: with no delay policy, as drawn, or with every node that
        does not withhold delaying, the runs are identical."""
        executions, adversary = case
        policies, delay = adversary.policies, Policy.DELAY_SETTLE_TO_EXPIRY
        specs = [
            AdversarySpec({v: p for v, p in policies.items() if p is not delay}),
            adversary,
            AdversarySpec({v: policies.get(v, delay) for v in NODES}),
        ]
        runs = []
        for spec in specs:
            copies = _copies(executions)
            ledger, statuses = run_execution(copies, spec)
            runs.append((statuses, events_to_json(ledger), ledger.deltas, ledger.rounds,
                         executions_to_json(copies)))
        assert runs[0] == runs[1] == runs[2]


class TestEmitters:
    @settings(max_examples=60)
    @given(executions_and_adversary())
    def test_match_json_dumps(self, case):
        executions, adversary = case
        assert executions_to_json(executions) == _dumped(executions_to_json_dict(executions))
        want, _ = _reference_run_execution(_copies(executions), adversary)
        ledger, _ = run_execution(executions, adversary)
        assert executions_to_json(executions) == _dumped(executions_to_json_dict(executions))
        assert events_to_json(ledger) == _dumped(want.events)

    def test_pending_contracts_write_null_rounds(self):
        ex = make_execution(CycleFlow(("ü", "B"), 2), "ü", b"\x12" * 32)
        text = executions_to_json([ex])
        assert '"resolved_round": null' in text and '"\\u00fc"' in text
        assert text == json.dumps(executions_to_json_dict([ex]), indent=2) + "\n"

    def test_empty(self):
        assert executions_to_json([]) == "[]\n"
        assert events_to_json(Ledger()) == "[]\n"
