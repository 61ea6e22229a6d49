"""Closed-form classical and Moore-Penrose-type inverses.

An element is invertible exactly when P = N^2 + 4*T^2 is nonzero, and then

    a^{-1} = ((N - 2*T*e7) / P) * a.conjugate().

Every element has a unique generalized inverse x satisfying the four
conditions a*x*a = a, x*a*x = x, (a*x)' = a*x, (x*a)' = x*a (with ' the
prime involution).  For singular nonzero a it is a.prime() / (4*K) with
K = c0^2 + c2^2 + c4^2 + c6^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .multivector import DEFAULT_TOL, Functionals, Multivector, _reduced, _scaled, _within

__all__ = ["SingularElement", "MPKind", "MPResult", "inverse", "mp_inverse"]


class SingularElement(ArithmeticError):
    """Raised when an operation needs an invertible element (P != 0)."""


class MPKind(enum.Enum):
    ZERO = "Zero"
    INVERTIBLE = "Invertible"
    SINGULAR_NONZERO = "SingularNonzero"


@dataclass(frozen=True)
class MPResult:
    """Generalized inverse plus the case it came from.

    ``condition`` is P / s^2, s the coefficient square sum (0.0 for the
    zero element).  It equals 4r / (1 + r)^2 with r = 1 / cond2(L(a))^2,
    lies in [0, 1], does not change when a is scaled and is computed on
    the reduced element, so it never divides by zero.  The map a -> pinv
    is discontinuous at P = 0, so near-singular inputs make the invertible
    branch explosive; callers can read the distance to that cliff here.
    """

    pinv: Multivector
    kind: MPKind
    condition: float


def _invert(a: Multivector, f: Functionals, s: float, tol: float) -> Multivector | None:
    """Classical inverse of ``a`` from its functionals ``f`` and coefficient
    square sum ``s``; None when P <= tol * s^2."""
    if _within(f.P, tol, s * s):
        return None
    central = Multivector((f.N / f.P, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * f.T / f.P))
    return central * a.conjugate()


def inverse(a: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Two-sided inverse of ``a``; raises SingularElement when P <= tol * s^2."""
    r, e, s = _reduced(a)
    x = _invert(r, r.functionals(), s, tol)
    if x is None:
        raise SingularElement(f"P(a) <= tol * s^2 with tol = {tol:g}: a is singular")
    return _scaled(x, -e)


def mp_inverse(a: Multivector, tol: float = DEFAULT_TOL) -> MPResult:
    """Generalized inverse of ``a`` as a total function.

    Returns the zero element for zero input, the classical inverse when
    P > tol * s^2, and a.prime() / (4*K) otherwise.  Far from norm 1 both
    are computed on ``a`` scaled by a power of two and scaled back, so
    pinv(2^k a) is exactly pinv(a) / 2^k; a result that overflows raises
    ValueError.
    """
    r, e, s = _reduced(a)
    f = r.functionals()
    x = _invert(r, f, s, tol)
    if x is not None:
        return MPResult(pinv=_scaled(x, -e), kind=MPKind.INVERTIBLE, condition=f.P / (s * s))
    if s == 0.0:  # only zero reduces to a zero square sum
        return MPResult(pinv=Multivector.zero(), kind=MPKind.ZERO, condition=0.0)
    # K > 0 here.  Exactly: K = (s + N) / 2 and N^2 <= P <= tol * s^2 give
    # K >= s * (1 - sqrt(tol)) / 2 > 0, as tol < 1.  In floats: K == 0
    # zeroes every even-index square, so N sums the same squares in the
    # same order as s and equals -s; then P >= s*s > tol*s*s, and a took
    # the invertible branch above.
    return MPResult(
        pinv=_scaled(r.prime() / (4.0 * f.K), -e),
        kind=MPKind.SINGULAR_NONZERO,
        condition=f.P / (s * s),
    )
