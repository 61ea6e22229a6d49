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

from .multivector import DEFAULT_TOL, Functionals, Multivector, _singular_p

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

    ``condition`` is P divided by the fourth power of the coefficient norm
    (0.0 for the zero element).  The map a -> pinv is discontinuous at
    P = 0, so near-singular inputs make the invertible branch explosive;
    callers can read the distance to that cliff here.
    """

    pinv: Multivector
    kind: MPKind
    condition: float


def _invert(a: Multivector, f: Functionals, s: float, tol: float) -> Multivector | None:
    """Classical inverse of ``a`` from its functionals ``f`` and coefficient
    square sum ``s``; None when P is within ``tol`` of 0."""
    if _singular_p(f.P, s, tol):
        return None
    central = Multivector((f.N / f.P, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * f.T / f.P))
    return central * a.conjugate()


def inverse(a: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Two-sided inverse of ``a``; raises SingularElement when P ~ 0."""
    f = a.functionals()
    x = _invert(a, f, sum(c * c for c in a.coeffs), tol)
    if x is None:
        raise SingularElement(f"P(a) = {f.P:g} is within tolerance of 0")
    return x


def mp_inverse(a: Multivector, tol: float = DEFAULT_TOL) -> MPResult:
    """Generalized inverse of ``a`` as a total function.

    Returns the zero element for zero input, the classical inverse when
    P != 0 (within ``tol``), and a.prime() / (4*K) otherwise.
    """
    if a.is_zero():
        return MPResult(pinv=Multivector.zero(), kind=MPKind.ZERO, condition=0.0)
    f = a.functionals()
    s = sum(x * x for x in a.coeffs)
    condition = f.P / (s * s)
    x = _invert(a, f, s, tol)
    if x is not None:
        return MPResult(pinv=x, kind=MPKind.INVERTIBLE, condition=condition)
    # P = 0 with a != 0 forces K = (sum of squares) / 2 > 0.
    assert f.K > 0.0, "singular nonzero element with K = 0 cannot exist"
    return MPResult(
        pinv=a.prime() / (4.0 * f.K),
        kind=MPKind.SINGULAR_NONZERO,
        condition=condition,
    )
