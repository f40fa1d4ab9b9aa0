"""A checked twin of ``pcnflow.mpc.ArithmeticBlackBox`` for the tests.

``ShadowEngine`` tracks, beside every value's shares, the plain integer
they stand for (its shadow, ``Tracked.p``). Each primitive runs the
engine's own, then checks it: every operand must carry a shadow its
shares open to, the result must open to its own shadow, and a shadow past
PRIME/2 in magnitude raises ``ModelError``, catching wraparound that
shares alone would hide. The checks are plain raises, so they hold under
``python -O`` too. The derived helpers compose the checked primitives by
the ``composed_*`` references below, so the shares, ops and dealer draws
equal the fused engine's.
"""

from __future__ import annotations

from typing import Callable

from pcnflow.model import ModelError, child_seed
from pcnflow.mpc import _HALF, PRIME, ArithmeticBlackBox, MpcSession
from pcnflow.solver import SolverError


class Tracked(list):
    """A value's k shares plus ``p``, the integer they stand for."""

    __slots__ = ("p",)

    def __init__(self, shares, p: int):
        super().__init__(shares)
        self.p = p


# The helpers as the primitives they stand for, on any engine ``r``.


def composed_select(r, bit, x, y):
    return r.add(y, r.mul(bit, r.sub(x, y)))


def composed_mul_add(r, acc, x, y):
    return r.add(acc, r.mul(x, y))


def composed_either(r, a, b):
    both = r.mul(a, b)
    return r.sub(r.add(a, b), both)


def composed_gt(r, a, b):
    return r.gt0(r.sub(a, b))


def composed_eq_const(r, a, c):
    return r.eq0(r.sub(a, r.const(c)))


def composed_relax(r, old, base, step, *labels):
    cand = r.add(base, step)
    bit = composed_gt(r, old, cand)
    pairs = [(cand, old)] + [(r.const(c), y) for c, y in labels]
    return (bit, *[composed_select(r, bit, x, y) for x, y in pairs])


class ShadowEngine(ArithmeticBlackBox):
    def _checked(self, shares, shadow_of: Callable[..., int], *operands) -> Tracked:
        """``shares`` as a Tracked value, checking it and its operands.

        ``shadow_of`` maps the operands' shadows to the result's.
        """
        plains = []
        for x in operands:
            if not isinstance(x, Tracked):
                raise SolverError("shadow engine got a value without a shadow")
            if sum(x) % PRIME != x.p % PRIME:
                raise SolverError("operand shares do not open to its shadow")
            plains.append(x.p)
        plain = shadow_of(*plains)
        if abs(plain) > _HALF:
            raise ModelError(f"intermediate value {plain} would wrap the modulus")
        if sum(shares) % PRIME != plain % PRIME:
            raise SolverError("shadow value diverged from shares")
        return Tracked(shares, plain)

    def const(self, x):
        return self._checked(super().const(x), lambda: x)

    def input(self, x):
        return self._checked(super().input(x), lambda: x)

    def add(self, a, b):
        return self._checked(super().add(a, b), lambda p, q: p + q, a, b)

    def sub(self, a, b):
        return self._checked(super().sub(a, b), lambda p, q: p - q, a, b)

    def smul(self, c, a):
        return self._checked(super().smul(c, a), lambda p: c * p, a)

    def mul(self, a, b):
        return self._checked(super().mul(a, b), lambda p, q: p * q, a, b)

    def gt0(self, a):
        return self._checked(super().gt0(a), lambda p: int(p >= 1), a)

    def eq0(self, a):
        return self._checked(super().eq0(a), lambda p: int(p == 0), a)

    select = composed_select
    mul_add = composed_mul_add
    either = composed_either
    gt = composed_gt
    eq_const = composed_eq_const
    relax = composed_relax


def shadow_session(k: int, seed: int) -> MpcSession:
    """``MpcSession(k, seed)`` running the shadow engine on the same dealer seed."""
    session = MpcSession(k, seed)
    session.abb = ShadowEngine(k, child_seed(seed, "dealer"))
    return session
