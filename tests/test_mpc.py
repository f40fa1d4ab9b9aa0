import collections
import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pcnflow.cli import generate_instance, main
from pcnflow.model import ChannelConstraint, InvariantViolation, ModelError, build_instance
from pcnflow.model import dump_instance
from pcnflow.mpc import (
    PRIME,
    ArithmeticBlackBox,
    MpcSession,
    _field_elements,
    default_schedule,
    prologue_and_round,
    reconstruct,
    select_delegates,
    sortition_digest,
)
from pcnflow.solver import SolverError, solve_rebalancing
from shadow import (
    ShadowEngine,
    Tracked,
    composed_either,
    composed_eq_const,
    composed_gt,
    composed_mul_add,
    composed_relax,
    composed_select,
    shadow_session,
)


def share(x: int, k: int, rng: random.Random) -> list[int]:
    """The reference split the engine's ``split`` kernel is checked
    against: k-1 field elements drawn before x is touched, then x minus
    their sum mod PRIME."""
    parts = _field_elements(rng, k - 1)
    parts.append((x - sum(parts)) % PRIME)
    return parts


def triangle(caps=(4, 4, 4), cap_bound=4):
    return build_instance(
        ["A", "B", "C"],
        [
            ChannelConstraint("A", "B", caps[0]),
            ChannelConstraint("B", "C", caps[1]),
            ChannelConstraint("C", "A", caps[2]),
        ],
        capacity_bound=cap_bound,
        weight_bound=1,
    )


class TestSharing:
    @given(st.integers(-(2**40), 2**40), st.integers(2, 5), st.integers(0, 1000))
    def test_round_trip(self, x, k, seed):
        parts = ArithmeticBlackBox(k, seed).input(x)
        assert len(parts) == k and all(0 <= v < PRIME for v in parts)
        assert reconstruct(parts) == x

    def test_spec_number(self):
        assert reconstruct(ArithmeticBlackBox(3, 0).input(42)) == 42

    def test_additive_homomorphism(self):
        a, b = 1234, -987
        abb = ArithmeticBlackBox(3, 1)
        sa, sb = abb.input(a), abb.input(b)
        assert reconstruct([(x + y) % PRIME for x, y in zip(sa, sb)]) == a + b
        abb = ShadowEngine(3, 1)
        assert reconstruct(abb.add(abb.input(a), abb.input(b))) == a + b

    def test_zero_shares_sum_to_zero_mod_p(self):
        assert sum(ArithmeticBlackBox(2, 2).input(0)) % PRIME == 0

    def test_engine_inputs_use_the_same_split(self):
        # An engine input is exactly the sharing the reference ``share``
        # makes from the engine's random stream.
        x = -31337
        assert ArithmeticBlackBox(4, 12).input(x) == share(x, 4, random.Random(12))
        assert ShadowEngine(4, 12).input(x).p == x

    def test_out_of_range(self):
        abb = ArithmeticBlackBox(2, 0)
        for x in (PRIME, -PRIME, (PRIME + 1) // 2):
            with pytest.raises(ModelError, match=f"^{x} cannot be represented without wraparound$"):
                abb.input(x)
        assert reconstruct(abb.input((PRIME - 1) // 2)) == (PRIME - 1) // 2

    def test_needs_two_delegates(self):
        with pytest.raises(ValueError):
            ArithmeticBlackBox(1, 0)
        with pytest.raises(ValueError):
            MpcSession(1, seed=0).share_instance(triangle())

    def test_first_shares_independent_of_secret(self):
        # Identical randomness, different secrets: the first k-1 shares
        # coincide exactly, so they carry no information about the value.
        a = ArithmeticBlackBox(4, 9).input(5)
        b = ArithmeticBlackBox(4, 9).input(-71234)
        assert a[:-1] == b[:-1]
        assert a[-1] != b[-1]


class ScriptedRandom(random.Random):
    """A Random whose getrandbits returns 2**61 - 1 at the given call numbers.

    Overriding getrandbits makes the inherited randrange draw through it too.
    """

    def __init__(self, seed, hits):
        super().__init__(seed)
        self.hits = set(hits)
        self.calls = 0

    def getrandbits(self, k):
        n = self.calls
        self.calls += 1
        return (1 << 61) - 1 if n in self.hits else super().getrandbits(k)


def randrange_loop(rng, count):
    """What randrange(PRIME) does: redraw 61 bits until below PRIME."""
    out = []
    for _ in range(count):
        r = rng.getrandbits(61)
        while r >= PRIME:
            r = rng.getrandbits(61)
        out.append(r)
    return out


class TestDrawStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**64 - 1])
    def test_same_stream_as_randrange(self, seed):
        for count in (0, 1, 2, 8, 50):
            rng = random.Random(seed)
            ref = random.Random(seed)
            assert _field_elements(rng, count) == [ref.randrange(PRIME) for _ in range(count)]
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize(
        "hits, count",
        [((0,), 3), ((2,), 3), ((7,), 8), ((1, 2, 3), 4), ((3, 4, 9), 8), ((0, 1), 1)],
    )
    def test_rejection_path(self, hits, count):
        rng = ScriptedRandom(5, hits)
        got = _field_elements(rng, count)
        assert rng.calls == count + len(hits)
        assert got == randrange_loop(ScriptedRandom(5, hits), count)
        ref = ScriptedRandom(5, hits)
        assert got == [ref.randrange(PRIME) for _ in range(count)]
        assert PRIME not in got

    @pytest.mark.parametrize("hits", [(), (1,)], ids=["plain", "rejected-draw"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_engine_splits_equal_the_reference(self, k, hits):
        # input, gt0 and eq0 each split their value by the engine's one
        # kernel; on the same stream that is the reference split, draw
        # for draw, a dropped PRIME draw included.
        engine = ArithmeticBlackBox(k, 0)
        engine.rng, ref = ScriptedRandom(5, hits), ScriptedRandom(5, hits)
        half = (PRIME - 1) // 2
        for x in (-half, -5, -1, 0, 1, 7, half):
            assert engine.input(x) == share(x, k, ref)
            a = share(x, k, random.Random(x))
            assert engine.gt0(a) == share(int(x >= 1), k, ref)
            assert engine.eq0(a) == share(int(x == 0), k, ref)
        assert engine.rng.calls == ref.calls == 21 * (k - 1) + len(hits)
        assert engine.ops == ["cmp", "cmp"] * 7

    # sha256 of the raw shares of share_instance and private_solve plus the
    # transcript, computed with the randrange dealer the draw routine replaced.
    PINNED = "51e92702d1832b29809043f7b7cb73702ea66127f5370bde41426dd4a25ed5ce"
    # The same digest at k=2 and k=5 over two rounds, computed before the
    # closed-form Beaver share and the fused helpers.
    PINNED_BY_K = {
        2: "05108fcffe7ac5203b7731fc920112708c370cf4a7e50a17cfbb5808b709cdf3",
        5: "d185b60ae17b34dc88dd5641c0697dd0536c1e64f50a0289ecb645af93cd31b3",
    }

    @staticmethod
    def shares_digest(k: int, schedule: int, shadow: bool) -> str:
        inst = generate_instance(4, 6, cap_max=2, weight_max=1, seed=11)
        session = (shadow_session if shadow else MpcSession)(k, 11)
        shared = session.share_instance(inst)
        flows, transcript = session.private_solve(shared, schedule)
        h = hashlib.sha256()
        for s in (*shared.capacities, *shared.weights, *flows):
            h.update(",".join(map(str, s)).encode() + b";")
        h.update(transcript.dumps().encode())
        return h.hexdigest()

    def test_pinned_full_schedule_solve(self):
        # sha256 of the flow shares of a full 36-round solve on the
        # mpc-private shape, recorded before input, gt0 and eq0 moved
        # onto the split kernel.
        inst = generate_instance(5, 9, cap_max=2, weight_max=2, seed=0)
        session = MpcSession(3, 7)
        shared = session.share_instance(inst)
        flows, _ = session.private_solve(shared, default_schedule(shared.public_shape()))
        h = hashlib.sha256()
        for s in flows:
            h.update(",".join(map(str, s)).encode() + b";")
        assert h.hexdigest() == "1f1bd494feffdc8a56e5a73663829e01e508833b8cb95e5f735071fbf0c11eaf"

    @pytest.mark.parametrize("shadow", [False, True])
    def test_pinned_share_values_and_transcript(self, shadow):
        assert self.shares_digest(3, 3, shadow) == self.PINNED

    @pytest.mark.parametrize("shadow", [False, True])
    @pytest.mark.parametrize("k", sorted(PINNED_BY_K))
    def test_pinned_share_values_other_k(self, k, shadow):
        assert self.shares_digest(k, 2, shadow) == self.PINNED_BY_K[k]


def reference_mul(abb, a, b):
    """Beaver multiplication that builds the closing share of a, of b and
    of ab, as ``share`` closes a sharing, and combines all k shares."""
    abb.ops.append("mul shared")
    k = abb.k
    r = _field_elements(abb.rng, 3 * k - 1)
    ta, tb = r[0], r[1]
    sa = r[2 : k + 1] + [(ta - sum(r[2 : k + 1])) % PRIME]
    sb = r[k + 1 : 2 * k] + [(tb - sum(r[k + 1 : 2 * k])) % PRIME]
    sc = r[2 * k :] + [(ta * tb % PRIME - sum(r[2 * k :])) % PRIME]
    d = (sum(a) - sum(sa)) % PRIME
    e = (sum(b) - sum(sb)) % PRIME
    vals = [(c_i + d * b_i + e * a_i) % PRIME for c_i, a_i, b_i in zip(sc, sa, sb)]
    vals[0] = (vals[0] + d * e) % PRIME
    return vals


class ReferenceEngine(ArithmeticBlackBox):
    """The engine with ``reference_mul`` for its Beaver product; the tests
    call the ``composed_*`` helpers on it, never its fused ones."""

    mul = reference_mul


class TestFusedHelpers:
    """Each fused helper against the primitives it stands for, composed on a
    second engine with the same seed: equal shares, equal ops appended and
    the same next dealer draw. A third engine, the shadow engine, runs the
    helper as the composition of its checked primitives."""

    # name -> (fused call, composed reference); o holds the operands.
    CASES = {
        "mul": (
            lambda e, o: e.mul(o["x"], o["y"]),
            lambda r, o: r.mul(o["x"], o["y"]),
        ),
        "select": (
            lambda e, o: e.select(o["bit"], o["x"], o["y"]),
            lambda r, o: composed_select(r, o["bit"], o["x"], o["y"]),
        ),
        "mul_add": (
            lambda e, o: e.mul_add(o["z"], o["x"], o["y"]),
            lambda r, o: composed_mul_add(r, o["z"], o["x"], o["y"]),
        ),
        "either": (
            lambda e, o: e.either(o["bit"], o["bit2"]),
            lambda r, o: composed_either(r, o["bit"], o["bit2"]),
        ),
        "gt": (
            lambda e, o: e.gt(o["x"], o["y"]),
            lambda r, o: composed_gt(r, o["x"], o["y"]),
        ),
        "eq_const": (
            lambda e, o: e.eq_const(o["x"], o["c"]),
            lambda r, o: composed_eq_const(r, o["x"], o["c"]),
        ),
        "relax": (
            lambda e, o: e.relax(o["x"], o["y"], o["z"], (o["c"], o["w"]), (2, o["bit"])),
            lambda r, o: composed_relax(
                r, o["x"], o["y"], o["z"], (o["c"], o["w"]), (2, o["bit"])
            ),
        ),
    }
    SMALL = st.integers(-3, 3)
    VALUE = st.one_of(SMALL, st.integers(-(2**29), 2**29))  # products stay below PRIME / 2

    @pytest.mark.parametrize("name", sorted(CASES))
    @settings(max_examples=60)
    @given(
        k=st.integers(2, 8),  # each k has its own generated kernels
        seed=st.integers(0, 2**64 - 1),
        values=st.fixed_dictionaries({"x": VALUE, "y": VALUE, "z": VALUE, "w": VALUE}),
        bits=st.tuples(st.integers(0, 1), st.integers(0, 1)),
        c=SMALL,
    )
    def test_fused_equals_composed(self, name, k, seed, values, bits, c):
        fused, composed = self.CASES[name]
        rng = random.Random(seed ^ 1)
        plain = {**values, "bit": bits[0], "bit2": bits[1]}
        operands = {key: Tracked(share(v, k, rng), v) for key, v in plain.items()}
        operands["c"] = c
        engines = [engine(k, seed) for engine in (ArithmeticBlackBox, ReferenceEngine, ShadowEngine)]
        outputs = [
            fused(engines[0], operands),
            composed(engines[1], operands),
            fused(engines[2], operands),
        ]
        shares = [list(map(list, out)) if isinstance(out, tuple) else list(out) for out in outputs]
        assert shares[0] == shares[1] == shares[2]
        assert engines[0].ops == engines[1].ops == engines[2].ops
        draws = [_field_elements(e.rng, 1) for e in engines]
        assert draws[0] == draws[1] == draws[2]

    @pytest.mark.parametrize("hits", [(0,), (3,), (7,), (2, 8)])
    def test_rejected_draw_inside_a_triple(self, hits):
        # The engine takes a triple's batch without ``_field_elements``; a
        # draw equal to PRIME must still be dropped and drawn again.
        engines = [ArithmeticBlackBox(3, 0), ReferenceEngine(3, 0)]
        for e in engines:
            e.rng = ScriptedRandom(5, hits)
        x, y = (share(v, 3, random.Random(v)) for v in (6, -7))
        assert engines[0].mul(x, y) == engines[1].mul(x, y)
        assert engines[0].rng.calls == engines[1].rng.calls == 8 + len(hits)

    # A k=3 relax takes its bit's 2 draws and three triples' 8 in one batch of 26.
    @pytest.mark.parametrize("hits", [(i,) for i in range(26)] + [(0, 25), (25, 26, 27)])
    def test_rejected_draw_inside_a_relax_batch(self, hits):
        engines = [ArithmeticBlackBox(3, 0), ReferenceEngine(3, 0)]
        for e in engines:
            e.rng = ScriptedRandom(5, hits)
        old, base, step, w, bit = (share(v, 3, random.Random(v)) for v in (6, 1, 2, -4, 1))
        fused = engines[0].relax(old, base, step, (3, w), (2, bit))
        composed = composed_relax(engines[1], old, base, step, (3, w), (2, bit))
        assert list(fused) == list(composed)
        assert engines[0].ops == engines[1].ops
        assert engines[0].rng.calls == engines[1].rng.calls == 26 + len(hits)

    @pytest.mark.parametrize("hits", [(0,), (1,), (1, 2)])
    def test_rejected_draw_inside_a_bit_split(self, hits):
        engines = [ArithmeticBlackBox(3, 0) for _ in range(2)]
        for e in engines:
            e.rng = ScriptedRandom(5, hits)
        x, y = (share(v, 3, random.Random(v)) for v in (6, -7))
        assert engines[0].gt(x, y) == composed_gt(engines[1], x, y)
        assert engines[0].ops == engines[1].ops
        assert engines[0].rng.calls == engines[1].rng.calls == 2 + len(hits)


class TestShadowChecks:
    PRIMITIVES = [
        ("add", lambda abb, x, y: abb.add(x, y)),
        ("add", lambda abb, x, y: abb.add(y, x)),
        ("sub", lambda abb, x, y: abb.sub(x, y)),
        ("smul", lambda abb, x, y: abb.smul(3, x)),
        ("mul", lambda abb, x, y: abb.mul(x, y)),
        ("mul", lambda abb, x, y: abb.mul(y, x)),
        ("gt0", lambda abb, x, y: abb.gt0(x)),
        ("eq0", lambda abb, x, y: abb.eq0(x)),
    ]

    @pytest.mark.parametrize("name, op", PRIMITIVES)
    def test_shares_not_opening_to_shadow(self, name, op):
        abb = ShadowEngine(3, 1)
        bad = Tracked(share(5, 3, random.Random(2)), 6)
        with pytest.raises(SolverError, match="^operand shares do not open to its shadow$"):
            op(abb, bad, abb.input(4))

    @pytest.mark.parametrize("name, op", PRIMITIVES)
    def test_missing_shadow(self, name, op):
        abb = ShadowEngine(3, 1)
        bare = ArithmeticBlackBox(3, 1).input(5)
        assert type(bare) is list
        with pytest.raises(SolverError, match="^shadow engine got a value without a shadow$"):
            op(abb, bare, abb.input(4))

    def test_wraparound_raises(self):
        abb = ShadowEngine(3, 1)
        x = abb.input(2**40)
        assert reconstruct(abb.mul(x, abb.input(2**19))) == 2**59
        with pytest.raises(ModelError, match=f"^intermediate value {2**61} would wrap the modulus$"):
            abb.mul(x, abb.input(2**21))

    def test_checks_survive_optimize_flag(self):
        code = (
            "from shadow import ShadowEngine, Tracked\n"
            "from pcnflow.solver import SolverError\n"
            "abb = ShadowEngine(2, 0)\n"
            "for bad in (Tracked([1, 2], 4), [1, 2]):\n"
            "    try:\n"
            "        abb.add(bad, abb.input(1))\n"
            "    except SolverError:\n"
            "        continue\n"
            "    raise SystemExit('not caught')\n"
        )
        here = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join(map(str, (here, here.parent / "src")))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stdout + done.stderr


class TestSortition:
    PARTICIPANTS = ["n0", "n1", "n2", "n3", "n4"]

    def test_k_equal_to_population_selects_everyone(self):
        got = select_delegates(self.PARTICIPANTS, 5, seed=3)
        assert sorted(got.delegates) == self.PARTICIPANTS

    def test_deterministic(self):
        a = select_delegates(self.PARTICIPANTS, 2, seed=3)
        b = select_delegates(self.PARTICIPANTS, 2, seed=3)
        assert a == b

    def test_matches_independent_digest_ranking(self):
        seed = 1234
        ranked = sorted(
            self.PARTICIPANTS,
            key=lambda v: hashlib.sha256(b"1234" + b"|" + v.encode()).digest(),
        )
        got = select_delegates(self.PARTICIPANTS, 2, seed)
        assert list(got.delegates) == ranked[:2]
        assert sortition_digest(seed, "n0") == hashlib.sha256(b"1234|n0").digest()

    def test_k_too_large(self):
        with pytest.raises(ModelError, match="^k=6 exceeds 5 participants$"):
            select_delegates(self.PARTICIPANTS, 6, seed=0)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            select_delegates(self.PARTICIPANTS, 1, seed=0)

    def test_selection_is_uniform_chi_square(self):
        counts = {v: 0 for v in self.PARTICIPANTS}
        trials = 2000
        for seed in range(trials):
            for v in select_delegates(self.PARTICIPANTS, 2, seed).delegates:
                counts[v] += 1
        expected = trials * 2 / len(self.PARTICIPANTS)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 18.47  # df=4, alpha=0.001


def full_solve(session, inst):
    """Share ``inst`` and solve it over its full schedule."""
    shared = session.share_instance(inst)
    return session.private_solve(shared, default_schedule(shared.public_shape()))


class TestPrivateSolve:
    def test_triangle_matches_plaintext_optimum(self):
        inst = triangle()
        session = MpcSession(3, seed=5)
        flows, _ = full_solve(session, inst)
        circ = session.reconstruct_circulation(flows, inst)
        assert circ.objective() == 12

    def test_functional_equivalence_random(self):
        for seed in range(15):
            inst = generate_instance(4, 5, cap_max=2, weight_max=2, seed=seed)
            session = MpcSession(2, seed=seed)
            flows, _ = full_solve(session, inst)
            got = session.reconstruct_circulation(flows, inst).objective()
            assert got == solve_rebalancing(inst).objective

    def test_schedule_zero_yields_zero_circulation(self):
        inst = triangle()
        session = MpcSession(3, seed=6)
        flows, transcript = session.private_solve(session.share_instance(inst), schedule=0)
        circ = session.reconstruct_circulation(flows, inst)
        assert circ.objective() == 0
        assert circ.flows == (0, 0, 0)

    def test_partial_schedules_match_plaintext_bounded_runs(self):
        # The oblivious engine is the masked twin of the plaintext cycle
        # canceler; flows agree round for round, not just at the optimum.
        # n, m, capacity and weight maxima, seed; the last three shapes take
        # 3, 4 and 4 cancellations to exhaust.
        shapes = ((3, 3, 2, 1, 4), (4, 6, 2, 1, 20), (4, 5, 2, 1, 31), (4, 6, 3, 3, 59),
                  (5, 8, 3, 3, 54), (6, 10, 3, 3, 10))
        for n, m, cap_max, weight_max, seed in shapes:
            inst = generate_instance(n, m, cap_max=cap_max, weight_max=weight_max, seed=seed)
            for delegates in (2, 3):
                for k in range(0, 6):
                    session = MpcSession(delegates, seed=k)
                    flows, _ = session.private_solve(session.share_instance(inst), schedule=k)
                    circ = session.reconstruct_circulation(flows, inst)
                    plain = solve_rebalancing(inst, iteration_bound=k).circulation
                    assert circ.flows == plain.flows

    def test_early_stop_is_feasible_and_monotone(self):
        inst = generate_instance(4, 6, cap_max=2, weight_max=1, seed=8)
        session = MpcSession(2, seed=8)
        shared = session.share_instance(inst)
        previous = -1
        for k in range(0, 6):
            flows, _ = session.private_solve(shared, schedule=k)
            circ = session.reconstruct_circulation(flows, inst)  # validates
            assert circ.objective() >= previous
            previous = circ.objective()

    def test_shadow_mode_checks_modulus_headroom(self):
        inst = triangle()
        session = shadow_session(3, seed=7)
        flows, _ = full_solve(session, inst)
        assert session.reconstruct_circulation(flows, inst).objective() == 12

    def test_oversized_bounds_rejected_at_sharing(self):
        inst = build_instance(
            ["A", "B"],
            [ChannelConstraint("A", "B", 1)],
            capacity_bound=2**50,
            weight_bound=2**10,
        )
        need = f"need PRIME > {2 * 2**50 * 2**10}"
        with pytest.raises(ModelError, match=f"^declared bounds too large for the sharing modulus: {need}$"):
            MpcSession(2, seed=0).share_instance(inst)

    def test_default_schedule_formula(self):
        inst = triangle()
        assert default_schedule((inst.n, inst.m, inst.capacity_bound, inst.weight_bound)) == 12


class TestTranscripts:
    def test_same_shape_same_bytes(self):
        a = triangle(caps=(4, 4, 4))
        b = triangle(caps=(1, 3, 2))
        ta = MpcSession(3, seed=1)
        tb = MpcSession(3, seed=2)
        _, trans_a = full_solve(ta, a)
        _, trans_b = full_solve(tb, b)
        assert trans_a.dumps() == trans_b.dumps()

    def test_transcript_has_no_values(self):
        inst = triangle()
        session = MpcSession(3, seed=1)
        _, transcript = session.private_solve(session.share_instance(inst), schedule=1)
        allowed = {op for ops in ArithmeticBlackBox.OPS.values() for op in ops}
        assert allowed == {"add", "mul public", "mul shared", "cmp"}
        assert set(transcript.ops) <= allowed

    # One oblivious round at n=4/6/8 (m=n+2, k=3) costs about n**3 ops.
    @pytest.mark.parametrize(
        "n, counts",
        [
            (4, {"add": 1845, "mul shared": 702, "cmp": 325, "mul public": 72}),
            (6, {"add": 5911, "mul shared": 2216, "cmp": 1039, "mul public": 180}),
            (8, {"add": 13481, "mul shared": 5018, "cmp": 2377, "mul public": 336}),
        ],
    )
    def test_pinned_op_counts_of_one_round(self, n, counts):
        inst = generate_instance(n, n + 2, cap_max=2, weight_max=1, seed=11)
        session = MpcSession(3, seed=11)
        _, transcript = session.private_solve(session.share_instance(inst), schedule=1)
        assert collections.Counter(transcript.ops) == counts
        assert len(transcript.ops) == {4: 2944, 6: 9346, 8: 21212}[n]

    def test_different_shape_differs(self):
        small = triangle()
        bigger = generate_instance(4, 4, cap_max=4, weight_max=1, seed=0)
        sa = MpcSession(3, seed=1)
        sb = MpcSession(3, seed=1)
        _, ta = full_solve(sa, small)
        _, tb = full_solve(sb, bigger)
        assert ta.dumps() != tb.dumps()


class TestRoundCheck:
    """Every round of a solve logs the first round's ops, checked as it
    ends, and leaves the engine's log."""

    # The mpc-private bench shape: n=5, m=9, capacities and weights up to 2.
    SHAPE = dict(n=5, m=9, cap_max=2, weight_max=2, seed=11)

    def test_a_long_solve_holds_one_round(self):
        inst = generate_instance(**self.SHAPE)
        session = MpcSession(3, 11)
        _, transcript = session.private_solve(session.share_instance(inst), 100)
        prologue, body = prologue_and_round(inst)
        assert len(session.abb.ops) <= len(body)
        assert (transcript.prologue, transcript.body, transcript.rounds) == (prologue, body, 100)
        assert transcript.ops == prologue + body * 100

    @pytest.fixture
    def round_two_logs_an_extra_add(self, monkeypatch):
        """The engine logs one ``add`` more in its second round: the flow
        guard calls ``eq0`` once per node a round, and the first call of
        round two logs the extra op."""
        calls = itertools.count(1)
        eq0 = ArithmeticBlackBox.eq0

        def eq0_and_add(engine, a):
            if next(calls) == self.SHAPE["n"] + 1:
                engine.ops.append("add")
            return eq0(engine, a)

        monkeypatch.setattr(ArithmeticBlackBox, "eq0", eq0_and_add)

    def test_private_solve_refuses_the_round(self, round_two_logs_an_extra_add):
        session = MpcSession(3, 11)
        shared = session.share_instance(generate_instance(**self.SHAPE))
        with pytest.raises(InvariantViolation, match="^oblivious round 2 logged other ops than round 1$"):
            session.private_solve(shared, 3)

    def test_run_exits_2_and_writes_nothing(self, tmp_path, capsys, round_two_logs_an_extra_add):
        instance = tmp_path / "instance.json"
        instance.write_text(dump_instance(generate_instance(**self.SHAPE)))
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc", "--k", "3"]) == 2
        assert capsys.readouterr().err == (
            "internal invariant violated: oblivious round 2 logged other ops than round 1\n"
        )
        assert not outdir.exists()
