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
from typing import NamedTuple

from .multivector import (DEFAULT_TOL, Multivector, _check_tol, _make_scaled, _ntp, _record,
                          _reduce, _within)

__all__ = ["SingularElement", "MPKind", "MPResult", "inverse", "mp_inverse"]


class SingularElement(ArithmeticError):
    """Raised when an operation needs an invertible element (P != 0)."""


class MPKind(enum.Enum):
    ZERO = "Zero"
    INVERTIBLE = "Invertible"
    SINGULAR_NONZERO = "SingularNonzero"


# plain globals, as reading a member off the enum class is slow
_INVERTIBLE, _SINGULAR, _ZERO = MPKind.INVERTIBLE, MPKind.SINGULAR_NONZERO, MPKind.ZERO


class MPResult(NamedTuple):
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


_ZERO_RESULT = MPResult(Multivector.zero(), _ZERO, 0.0)  # immutable, so built once and shared


def _invert(c: tuple[float, ...], n: float, t: float, p: float) -> tuple[float, ...]:
    """The coefficients of ((N - 2*T*e7) / P) * conjugate(a) from a's
    coefficients ``c`` and N, T, P.  e7 * e_j = MUL_SIGN[7][j] e_(7^j), and
    the conjugate negates e1..e6."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    g0, g7 = n / p, -2.0 * t / p
    return (
        0.0 + g0 * c0 - g7 * c7, 0.0 - g0 * c1 + g7 * c6, 0.0 - g0 * c2 + g7 * c5,
        0.0 - g0 * c3 + g7 * c4, 0.0 - g0 * c4 - g7 * c3, 0.0 - g0 * c5 - g7 * c2,
        0.0 - g0 * c6 - g7 * c1, 0.0 + g0 * c7 + g7 * c0,
    )


def inverse(a: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Two-sided inverse of ``a``, the :func:`mp_inverse` of an invertible
    ``a``; raises SingularElement when P <= tol * s^2.  The kind is decided
    on the reduced element, so a tiny singular ``a`` raises SingularElement
    rather than the overflow of its generalized inverse."""
    c, e, s = _reduce(a.coeffs)
    n, t, p = _ntp(c)
    if _kind(s, p, _check_tol(tol)) is not _INVERTIBLE:
        raise SingularElement(f"P(a) <= tol * s^2 with tol = {tol:g}: a is singular")
    return _make_scaled(_invert(c, n, t, p), -e)


def mp_inverse(a: Multivector, tol: float = DEFAULT_TOL) -> MPResult:
    """Generalized inverse of ``a`` as a total function.

    Returns the zero element for zero input, the classical inverse when
    P > tol * s^2, and a.prime() / (4*K) otherwise.  Far from norm 1 both
    are computed on ``a`` scaled by a power of two and scaled back, so
    pinv(2^k a) is exactly pinv(a) / 2^k; a result that overflows raises
    ValueError.
    """
    c, e, s = _reduce(a.coeffs)
    n, t, p = _ntp(c)
    kind = _kind(s, p, _check_tol(tol))
    if kind is _INVERTIBLE:
        x = _invert(c, n, t, p)
    elif kind is _ZERO:
        return _ZERO_RESULT
    else:  # x = a.prime() / (4K)
        c0, c1, c2, c3, c4, c5, c6, c7 = c
        d = _four_k(c)
        x = (c0 / d + 0.0, c1 / d + 0.0, -c2 / d + 0.0, c3 / d + 0.0,
             -c4 / d + 0.0, c5 / d + 0.0, -c6 / d + 0.0, -c7 / d + 0.0)
    return _record(MPResult, (_make_scaled(x, -e), kind, p / (s * s)))


def _kind(s: float, p: float, tol: float) -> MPKind:
    """The kind of an element reduced by :func:`~cl12.multivector._reduce`,
    with square sum ``s`` and P = ``p``: the one place where the rule
    P <= tol * s^2 picks a branch, for inverse, mp_inverse and solve_axb."""
    if not _within(p, tol, s * s):
        return _INVERTIBLE
    return _SINGULAR if s else _ZERO  # only zero reduces to s == 0


def _four_k(c: tuple[float, ...]) -> float:
    """4K of pinv(a) = a.prime() / (4K), > 0 on the singular branch.  Exactly:
    K = (s + N) / 2 and N^2 <= P <= tol * s^2 give K >= s (1 - sqrt(tol)) / 2
    > 0.  In floats: K == 0 zeroes every even-index square, so N sums the
    same squares as s in the same order, N = -s and P >= s*s > tol*s*s."""
    return 4.0 * (c[0] * c[0] + c[2] * c[2] + c[4] * c[4] + c[6] * c[6])  # 4K
