"""Linear equations a*x*b = d, a*x = d and x*b = d.

One code path covers every invertibility mix: with p = pinv(a) and
q = pinv(b), the equation is solvable iff a*p*d*q*b equals d, a particular
solution is p*d*q, and the full solution set is

    p*d*q + { y - (p*a)*y*(b*q) : y in Cl(1,2) }.

The homogeneous part comes in closed form through the 2x2 complex image
of the algebra (the map of :mod:`cl12.multivector`).  There p*a and b*q
become Hermitian projectors A and B, since the prime involution becomes
the conjugate transpose.  Take an orthonormal eigenbasis of C^2 for each:
the standard basis for an invertible operand (eigenvalues 1, 1) and for
zero (0, 0); for a singular nonzero one (rank one, A = v v^H) the unit
vector v read off the column with the larger diagonal entry, eigenvalue
1, and w = (-conj(v2), conj(v1)), eigenvalue 0.  For eigenvectors v of A
(eigenvalue l) and u of B (eigenvalue m), y = v u^H gives
y - A y B = (1 - l*m) y, so the homogeneous solutions are spanned by
v u^H and i v u^H over the pairs with l*m = 0.  These are orthogonal for
Re tr(X^H Y), which is twice the coefficient inner product, so their
images scaled by sqrt(2) are an orthonormal basis.  Since e7 maps to -i,
i*y is the preimage of -e7*y: with y = sum c_k e_k that is the signed
reversal (c7, c6, c5, c4, -c3, -c2, -c1, -c0) of y's coefficients, so
each pair costs one conversion from the 2x2 image and no product.  Its size is read off
the two kinds alone (rows: a, columns: b):

                  invertible  singular  zero
    invertible         0           4        8
    singular           4           6        8
    zero               8           8        8
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .inverse import MPKind, _mp_inverse_reduced
from .multivector import (
    DEFAULT_TOL,
    Multivector,
    _from_m2,
    _ldexp,
    _reduced,
    _scaled,
    _to_m2,
    _within,
    e0,
)

__all__ = ["SolutionSet", "solve_axb", "solve_ax", "solve_xb"]

_SQRT2 = math.sqrt(2.0)
_STANDARD = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
# (eigenvalue, unit vector) pairs of the projector's image, per kind
_EIGENBASIS = {
    MPKind.INVERTIBLE: tuple((1, e) for e in _STANDARD),
    MPKind.ZERO: tuple((0, e) for e in _STANDARD),
}


class SolutionSet(NamedTuple):
    """Solutions of one linear equation.

    ``particular`` is None when unsolvable.  ``hom_basis`` is an
    orthonormal basis (as multivectors) of the homogeneous solution space,
    reported for unsolvable systems too (a list from ``solve_axb``, empty
    by default); ``dim`` is its size, which the
    kinds of a and b decide (the table in the module docstring).
    ``residual`` is the 2-norm of a*x*b - d at the candidate solution,
    which for an unsolvable system equals the least-squares residual of
    the vectorized 8x8 system.  The system is solvable when the residual
    is at most tol * (|a| |x| |b| + |d|), a bound that scales with the
    equation.
    """

    solvable: bool
    particular: Multivector | None
    hom_basis: Sequence[Multivector] = ()
    dim: int = 0
    residual: float = 0.0


def _eigenbasis(kind: MPKind, x: Multivector, y: Multivector):
    """Orthonormal (eigenvalue, vector) pairs of C^2 for the image of the
    projector x*y, where ``kind`` is the kind of the operand in it."""
    if kind in _EIGENBASIS:
        return _EIGENBASIS[kind]
    # rank one: the image is v v^H, and column j is v * conj(v_j)
    (m00, m01), (m10, m11) = _to_m2(x * y)
    c0, c1 = (m00, m10) if m00.real >= m11.real else (m01, m11)
    r = math.hypot(abs(c0), abs(c1))
    v0, v1 = c0 / r, c1 / r
    return (1, (v0, v1)), (0, (-v1.conjugate(), v0.conjugate()))


def solve_axb(a: Multivector, b: Multivector, d: Multivector,
              tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve a*x*b = d; unsolvable is reported as a value, not an error."""
    # Work on the operands reduced by powers of two (see _reduced), so that
    # no product below leaves the normal range and the verdict does not
    # depend on their scales; x scales back by 2^(ed - ea - eb).
    (a, ea, sa), (b, eb, sb), (d, ed, _) = _reduced(a), _reduced(b), _reduced(d)
    p, kind_a, _ = _mp_inverse_reduced(a, sa, tol)
    q, kind_b, _ = _mp_inverse_reduced(b, sb, tol)
    x0 = p * d * q
    residual = (a * x0 * b - d).norm()
    solvable = _within(residual, tol, a.norm() * x0.norm() * b.norm() + d.norm())
    hom = []
    right = _eigenbasis(kind_b, b, q)
    for lam, (v0, v1) in _eigenbasis(kind_a, p, a):
        for mu, (u0, u1) in right:
            if lam and mu:
                continue
            # sqrt(2) v u^H, and its multiple by i as a signed reversal
            w0, w1 = _SQRT2 * u0.conjugate(), _SQRT2 * u1.conjugate()
            y = _from_m2(((v0 * w0, v0 * w1), (v1 * w0, v1 * w1)))
            c0, c1, c2, c3, c4, c5, c6, c7 = y.coeffs
            hom.append(y)
            hom.append(Multivector._from_floats(
                (c7, c6, c5, c4, -c3 + 0.0, -c2 + 0.0, -c1 + 0.0, -c0 + 0.0)))
    return SolutionSet(
        solvable,
        _scaled(x0, ed - ea - eb) if solvable else None,
        hom,
        len(hom),
        _ldexp(residual, ed),  # inf when |d| is near the largest double
    )


def solve_ax(a: Multivector, d: Multivector, tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve a*x = d (the b = 1 specialization)."""
    return solve_axb(a, e0, d, tol)


def solve_xb(b: Multivector, d: Multivector, tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve x*b = d (the a = 1 specialization)."""
    return solve_axb(e0, b, d, tol)
