"""The oblivious solve reads no shared value, shape by shape.

``StandIn`` runs ``mpc._oblivious_solve`` on shares that hold nothing:
every value is the one ``SHARE``, which refuses to be read. Its op log is
a function of the public shape alone, since nothing else reaches it, so
the real engine's transcript on any instance of that shape must equal
it, and both must be ``mpc.prologue_and_round``'s prologue, then its
round once per round. A branch on a shared value raises ``ShareRead``; a
fused helper whose ``ArithmeticBlackBox.OPS`` entry drifts from the
primitives it stands for makes the two logs differ.
"""

import pytest

from pcnflow.cli import generate_instance
from pcnflow.pipeline import run_pipeline
from pcnflow.mpc import ArithmeticBlackBox, MpcSession, SharedInstance, _oblivious_solve
from pcnflow.mpc import default_schedule, prologue_and_round, public_shape
from shadow import (
    composed_either,
    composed_eq_const,
    composed_gt,
    composed_mul_add,
    composed_relax,
    composed_select,
)


class ShareRead(Exception):
    """The solve tried to read a shared value."""


class Opaque:
    """A shared value with nothing in it: any read raises ``ShareRead``."""

    __slots__ = ()

    def _refuse(self, *args):
        raise ShareRead("the oblivious solve read a shared value")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __iter__ = __len__ = __int__ = __index__ = __getitem__ = __hash__ = _refuse


SHARE = Opaque()


class StandIn:
    """An engine whose primitives log their ``ArithmeticBlackBox.OPS``
    entries and return ``SHARE`` for every value. Its fused helpers are
    the primitives they stand for (``shadow.composed_*``), not the
    table's composed entries."""

    def __init__(self):
        self.ops = []

    def _log(self, name: str) -> Opaque:
        self.ops += ArithmeticBlackBox.OPS[name]
        return SHARE

    def const(self, x):
        return SHARE

    def add(self, a, b):
        return self._log("add")

    def sub(self, a, b):
        return self._log("sub")

    def smul(self, c, a):
        return self._log("smul")

    def mul(self, a, b):
        return self._log("mul")

    def gt0(self, a):
        return self._log("gt0")

    def eq0(self, a):
        return self._log("eq0")

    select = composed_select
    mul_add = composed_mul_add
    either = composed_either
    gt = composed_gt
    eq_const = composed_eq_const
    relax = composed_relax


def stand_in_ops(shape: tuple[int, int, int, int], rounds: int) -> tuple[str, ...]:
    """The ops of ``rounds`` oblivious rounds on a shape, from the shape alone."""
    n, m, cap_bound, weight_bound = shape
    cells = (SHARE,) * (n * (n - 1))
    shared = SharedInstance(tuple(map(str, range(n))), m, cap_bound, weight_bound, cells, cells)
    return _oblivious_solve(StandIn(), shared, rounds)[1].ops


# (n, m, cap_max, weight_max) for generate_instance; weight_max 0 gives
# weight bound 1 and all-zero weights. Full schedules (m * cap_max *
# weight bound) run from 0 to 48 rounds, shorter at larger n.
SHAPES = [
    (2, 0, 1, 1),
    (2, 1, 3, 2),
    (3, 2, 4, 3),
    (3, 3, 2, 1),
    (4, 5, 2, 2),
    (4, 6, 1, 8),
    (5, 9, 2, 2),  # the mpc-private bench shape
    (6, 5, 1, 0),
    (6, 10, 1, 2),
]


@pytest.mark.parametrize("n, m, cap_max, weight_max", SHAPES)
def test_transcript_is_the_stand_in_log(n, m, cap_max, weight_max):
    instance = generate_instance(n, m, cap_max, weight_max, seed=n + m)
    shape = public_shape(instance)
    full = default_schedule(shape)
    prologue, body = prologue_and_round(instance)
    for rounds in sorted({0, 1, full}):
        session = MpcSession(2 + rounds % 2, seed=rounds)  # k and seed are not in the shape
        _, transcript = session.private_solve(session.share_instance(instance), rounds)
        want = prologue + body * rounds
        assert transcript.ops == want, (shape, rounds)
        assert stand_in_ops(shape, rounds) == want, (shape, rounds)


@pytest.mark.parametrize("n, m, cap_max, weight_max", SHAPES)
def test_pipeline_passes_its_twin_check_at_every_schedule(n, m, cap_max, weight_max):
    """The private solve equals the lockstep canceler flow for flow, short
    of the full schedule, at it and past it."""
    instance = generate_instance(n, m, cap_max, weight_max, seed=n + m)
    full = default_schedule(public_shape(instance))
    for rounds in sorted({0, 1, 2, full, full + 3}):
        report = run_pipeline(instance, seed=rounds, iteration_bound=rounds, k=2).report
        assert (report.iterations, report.terminated_early) == (rounds, rounds < full)


def test_every_read_of_a_share_raises():
    reads = [bool, int, len, iter, hash, lambda s: s[0], lambda s: s == 0, lambda s: s < 1,
             lambda s: 0 > s, lambda s: s in {1}, lambda s: [1][s], sum]
    for read in reads:
        with pytest.raises(ShareRead):
            read(SHARE)
