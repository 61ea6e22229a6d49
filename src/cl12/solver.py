"""Linear equations a*x*b = d, a*x = d and x*b = d.

One code path covers every invertibility mix: with p = pinv(a) and
q = pinv(b), the equation is solvable iff a*p*d*q*b equals d, a particular
solution is p*d*q, and the full solution set is

    p*d*q + { y - (p*a)*y*(b*q) : y in Cl(1,2) },

the second summand being the range of the map with matrix

    M = I - L(p*a) @ R(b*q).

Both p*a and b*q are fixed by the prime involution, so L(p*a) and R(b*q)
are commuting symmetric idempotents and M is the orthogonal projector onto
the kernel of L(a) @ R(b).  Its eigenvalues are 0 and 1, so the
eigenvectors of ``np.linalg.eigh(M)`` with eigenvalue above 1/2 are an
orthonormal basis of the homogeneous solutions.  When a and b are both
invertible M vanishes, nothing is built, and the particular solution is
the unique one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inverse import MPKind, mp_inverse
from .matrep import devectorize, left_matrix, right_matrix
from .multivector import DEFAULT_TOL, Multivector, _ldexp, _reduced, _scaled, _within

__all__ = ["SolutionSet", "solve_axb", "solve_ax", "solve_xb"]


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of one linear equation.

    ``particular`` is None when unsolvable.  ``hom_basis`` is an
    orthonormal basis (as multivectors) of the homogeneous solution space,
    reported for unsolvable systems too; ``dim`` is its size.  ``residual``
    is the 2-norm of a*x*b - d at the candidate solution, which for an
    unsolvable system equals the least-squares residual of the vectorized
    8x8 system.  The system is solvable when the residual is at most
    tol * (|a| |x| |b| + |d|), a bound that scales with the equation.
    """

    solvable: bool
    particular: Multivector | None
    hom_basis: list[Multivector] = field(default_factory=list)
    dim: int = 0
    residual: float = 0.0


def solve_axb(a: Multivector, b: Multivector, d: Multivector,
              tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve a*x*b = d; unsolvable is reported as a value, not an error."""
    # Work on the operands reduced by powers of two (see _reduced), so that
    # no product below leaves the normal range and the verdict does not
    # depend on their scales; x scales back by 2^(ed - ea - eb).
    (a, ea, _), (b, eb, _), (d, ed, _) = _reduced(a), _reduced(b), _reduced(d)
    ma, mb = mp_inverse(a, tol), mp_inverse(b, tol)
    p, q = ma.pinv, mb.pinv
    x0 = p * d * q
    residual = (a * x0 * b - d).norm()
    solvable = _within(residual, tol, a.norm() * x0.norm() * b.norm() + d.norm())
    if ma.kind is MPKind.INVERTIBLE and mb.kind is MPKind.INVERTIBLE:
        hom = []
    else:
        projector = np.eye(8) - left_matrix(p * a) @ right_matrix(b * q)
        values, vectors = np.linalg.eigh(projector)
        hom = [devectorize(vectors[:, k]) for k in range(8) if values[k] > 0.5]
    return SolutionSet(
        solvable=solvable,
        particular=_scaled(x0, ed - ea - eb) if solvable else None,
        hom_basis=hom,
        dim=len(hom),
        residual=_ldexp(residual, ed),  # inf when |d| is near the largest double
    )


def solve_ax(a: Multivector, d: Multivector, tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve a*x = d (the b = 1 specialization)."""
    return solve_axb(a, Multivector.basis(0), d, tol)


def solve_xb(b: Multivector, d: Multivector, tol: float = DEFAULT_TOL) -> SolutionSet:
    """Solve x*b = d (the a = 1 specialization)."""
    return solve_axb(Multivector.basis(0), b, d, tol)
