"""Linear equations a*x*b = d, a*x = d and x*b = d, solved in the 2x2 image.

A, B and D are the images of a, b and d under the map of
:mod:`cl12.multivector`, each formed once; the particular solution is
converted back once.  With A+ and B+ the images of pinv(a) and pinv(b), the
equation is solvable iff A A+ D B+ B = D, X = A+ D B+ is a particular
solution, and the solutions are the preimages of
X + { Y - (A+ A) Y (B B+) : Y in M2(C) }.  Prime is the conjugate transpose
in the image, so A+ is the Moore-Penrose inverse of A: adj(A) / det(A), with
det(A) = N - 2T*i, for an invertible a, and A^H / (4K), the image of
a.prime() / (4K), for a singular nonzero a (the kind as ``mp_inverse``
decides it).  The residual |a*x*b - d| is |A X B - D|_F / sqrt(2), formed
by products, so it is exactly 0.0 wherever they are exact.

A+ A and B B+ are Hermitian projectors.  Take an orthonormal eigenbasis of
C^2 for each: the standard basis for an invertible operand (eigenvalues
1, 1) and for zero (0, 0).  A singular nonzero A has rank one, and A+ A =
v v^H with v the unit vector along the conjugate of A's larger row
(eigenvalue 1); (-conj(v1), conj(v0)) has eigenvalue 0.  Likewise B B+ =
u u^H with u along B's larger column.  For eigenvectors v of A+ A
(eigenvalue l) and u of B B+ (eigenvalue m), Y = v u^H gives
Y - (A+ A) Y (B B+) = (1 - l*m) Y, so the homogeneous solutions are spanned
by v u^H and i v u^H over the pairs with l*m = 0.  These are orthogonal for
Re tr(X^H Y), twice the coefficient inner product, so their preimages scaled
by sqrt(2) are an orthonormal basis.  As e7 maps to -i, i*y is the preimage
of -e7*y, the signed reversal (c7, c6, c5, c4, -c3, -c2, -c1, -c0) of y's
coefficients: each pair costs one conversion and no product.  The dimension
is read off the two kinds alone (rows: a, columns: b):

                  invertible  singular  zero
    invertible         0           4        8
    singular           4           6        8
    zero               8           8        8
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .inverse import _INVERTIBLE, _SINGULAR, _ZERO, _four_k, _kind
from .multivector import (DEFAULT_TOL, Multivector, _check_tol, _from_m2, _ldexp, _m2_mul, _make,
                          _ntp, _reduce, _scaled, _to_m2, _within, e0)

__all__ = ["SolutionSet", "solve_axb", "solve_ax", "solve_xb"]

_SQRT2 = math.sqrt(2.0)
# the (eigenvalue, vector) pairs of an invertible and of a zero operand
_ONES, _ZEROS = (((lam, (1.0 + 0j, 0j)), (lam, (0j, 1.0 + 0j))) for lam in (1, 0))


class SolutionSet(NamedTuple):
    """Solutions of one linear equation.

    ``particular`` is None when unsolvable.  ``hom_basis`` is an
    orthonormal basis (as multivectors) of the homogeneous solution space,
    reported for unsolvable systems too (a list from ``solve_axb``, empty
    by default); ``dim`` is its size, which the kinds of a and b decide
    (the table in the module docstring).  ``residual`` is the 2-norm of
    a*x*b - d at the candidate solution, which for an unsolvable system
    equals the least-squares residual of the vectorized 8x8 system.  The
    system is solvable when the residual is at most
    tol * (|a| |x| |b| + |d|), a bound that scales with the equation.
    """

    solvable: bool
    particular: Multivector | None
    hom_basis: Sequence[Multivector] = ()
    dim: int = 0
    residual: float = 0.0


def _image_pinv(m, c, s: float, tol: float, columns: bool):
    """(kind, image of pinv, (eigenvalue, vector) pairs) of the element with
    coefficients ``c``, reduced by ``_reduce`` to the square sum ``s``, and
    image ``m``; the pairs are an eigenbasis of m+ m from m's rows, or with
    ``columns`` the conjugated eigenbasis of m m+ from its columns."""
    n, t, p = _ntp(c)
    kind = _kind(s, p, tol)
    (m00, m01), (m10, m11) = m
    if kind is _INVERTIBLE:  # adj(m) / det(m), with 1 / det = (N + 2T i) / P
        g = complex(n, 2.0 * t) / p
        return kind, ((g * m11, -g * m01), (-g * m10, g * m00)), _ONES
    if kind is _ZERO:
        return kind, ((0j, 0j), (0j, 0j)), _ZEROS
    d = _four_k(c)  # m^H / (4K); m has rank one, so z or y is a nonzero row (column)
    z, y = zip(*m) if columns else m
    rz, ry = math.hypot(abs(z[0]), abs(z[1])), math.hypot(abs(y[0]), abs(y[1]))
    (z0, z1), r = (z, rz) if rz >= ry else (y, ry)
    pairs = (1, (z0.conjugate() / r, z1.conjugate() / r)), (0, (-z1 / r, z0 / r))
    return kind, ((m00.conjugate() / d, m10.conjugate() / d),
                  (m01.conjugate() / d, m11.conjugate() / d)), pairs


def _hom_basis(left, right) -> list[Multivector]:
    """sqrt(2) v u^H and its multiple by i, a signed reversal, for l*m = 0."""
    hom = []
    for lam, (v0, v1) in left:
        for mu, (u0, u1) in right:
            if lam and mu:
                continue
            w0, w1 = _SQRT2 * u0, _SQRT2 * u1
            y = _from_m2(((v0 * w0, v0 * w1), (v1 * w0, v1 * w1)))
            c0, c1, c2, c3, c4, c5, c6, c7 = y.coeffs
            hom += y, _make((c7, c6, c5, c4, -c3 + 0.0, -c2 + 0.0, -c1 + 0.0, -c0 + 0.0))
    return hom


_ALL = tuple(_hom_basis(_ZEROS, _ZEROS))  # zero beside a nonsingular operand: all of Cl(1,2)


def solve_axb(a: Multivector, b: Multivector, d: Multivector,
              tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve a*x*b = d; unsolvable is reported as a value, not an error."""
    # Work on the operands reduced by powers of two (see _reduce), so that
    # no product below leaves the normal range and the verdict does not
    # depend on their scales; x scales back by 2^(ed - ea - eb).
    ca, ea, sa = _reduce(a.coeffs)
    cb, eb, sb = _reduce(b.coeffs)
    cd, ed, sd = _reduce(d.coeffs)
    ma, mb, md = _to_m2(ca), _to_m2(cb), _to_m2(cd)
    kind_a, pa, left = _image_pinv(ma, ca, sa, _check_tol(tol), False)
    kind_b, pb, right = _image_pinv(mb, cb, sb, tol, True)
    x = _m2_mul(_m2_mul(pa, md), pb)
    x0 = _from_m2(x)
    (r00, r01), (r10, r11) = _m2_mul(_m2_mul(ma, x), mb)
    (d00, d01), (d10, d11) = md
    residual = math.hypot(abs(r00 - d00), abs(r01 - d01), abs(r10 - d10), abs(r11 - d11)) / _SQRT2
    # |a|, |b| and |d| from the square sums _reduce has already formed
    solvable = _within(residual, tol, math.sqrt(sa) * x0.norm() * math.sqrt(sb) + math.sqrt(sd))
    kinds = kind_a, kind_b  # with no singular operand, dim is 0 or 8
    hom = _hom_basis(left, right) if _SINGULAR in kinds else list(_ALL) if _ZERO in kinds else []
    return SolutionSet(solvable, _scaled(x0, ed - ea - eb) if solvable else None, hom, len(hom),
                       _ldexp(residual, ed))  # inf when |d| is near the largest double


def solve_ax(a: Multivector, d: Multivector, tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve a*x = d (the b = 1 specialization)."""
    return solve_axb(a, e0, d, tol)


def solve_xb(b: Multivector, d: Multivector, tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve x*b = d (the a = 1 specialization)."""
    return solve_axb(e0, b, d, tol)
