"""Similarity of algebra elements, with explicit witnesses.

Two elements are similar when q*a = b*q for some invertible q.  Central
elements (the span of 1 and e7) are only similar to themselves; a central
and a non-central element are never similar, since conjugation fixes the
central part.  For two non-central elements the decision reduces to three
invariants: the central parts, N and T must agree.

When they do, u = cim(a) and v = cim(b) have equal central squares, so
every q = v*p + p*u solves q*a = b*q.  The witness is the first
invertible candidate with p = e0, e1, e2, e3, and one of them always is:

* Cl(1,2) is M2(C), with e7 -> i and P(x) = |det x|^2; e0..e3 are a
  C-basis, orthogonal for the trace form.  p = e_t*e7 = +-e_(t^7) only
  multiplies candidate t by the central unit e7, and P(x*e7) = P(x), so
  e4..e7 add nothing.
* u and v are nonzero and traceless.  If u^2 = v^2 = 0, u = x1 y1^T and
  v = x2 y2^T with y_k = m_k J x_k (J the 2x2 rotation), and
  det(v p + p u) = m1 m2 (x2^T J p x1)^2 vanishes on one hyperplane,
  which cannot hold a whole basis.
* Else u and v have eigenvalues +-s, s != 0, and in their eigenbases the
  candidate is diag(2s p11, -2s p22), singular iff tr(p s_k r_k^T)
  = 0 for k = 1 or 2 (s_k eigenvectors of u, r_k left ones of v).  Such
  a rank-one hyperplane holds at most two basis elements (three would
  make s_k r_k^T a multiple of the fourth, which is invertible), so all
  four singular needs a split {1, w} | {g, g w} with g w = -w g.  The
  two rank-one forms are then multiples of 1 + l w and g (1 +- l w),
  which share an image or a kernel: the eigenvector matrices would be
  singular.

In floats every comparison is relative to the pair's scale, so verdicts
do not change when both elements are scaled by a power of two.
``is_similar`` raises ``SingularElement`` when ``is_singular`` rejects all
four candidates.  That is forced when the norms of L(a) and L(b) differ
by a factor above 2 / sqrt(tol): b = q a q^-1 makes cond2(L(q)) at least
that factor for every witness q, and P / s^2 <= 4 / cond2^2 <= tol.  An
example is e1 + e2 and 1e-5 * (e1 + e2), two similar nilpotents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING

from .inverse import SingularElement, inverse
from .multivector import BASIS, DEFAULT_TOL, Multivector, _reduced, _scaled, _within

__all__ = [
    "SimilarityReason",
    "SimilarityResult",
    "ConjugationMatrix",
    "conjugate_by",
    "conjugation_matrix",
    "is_similar",
    "witness_candidates",
]

if TYPE_CHECKING:
    import numpy as np


class SimilarityReason(enum.Enum):
    CENTRAL_EQUAL = "CentralEqual"
    CENTRAL_UNEQUAL = "CentralUnequal"
    INVARIANTS_MATCH = "InvariantsMatch"
    CRE_MISMATCH = "CreMismatch"
    N_MISMATCH = "NMismatch"
    T_MISMATCH = "TMismatch"


@dataclass(frozen=True)
class SimilarityResult:
    similar: bool
    witness: Multivector | None
    reason: SimilarityReason


@dataclass(frozen=True)
class ConjugationMatrix:
    """Matrix of x -> q*x*q^{-1} and its central block.

    ``full`` is 8x8 and block-diagonal diag(1, S, 1) up to rounding: the
    scalar and e7 lines are fixed, and ``block`` is the invertible 6x6
    action on the e1..e6 components.
    """

    full: np.ndarray
    block: np.ndarray


def conjugate_by(q: Multivector, x: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """q * x * q^{-1}; raises SingularElement for non-invertible q."""
    return q * x * inverse(q, tol)


def conjugation_matrix(q: Multivector, tol: float = DEFAULT_TOL) -> ConjugationMatrix:
    from .matrep import left_matrix, right_matrix  # numpy, which is_similar does not need

    full = left_matrix(q) @ right_matrix(inverse(q, tol))
    return ConjugationMatrix(full=full, block=full[1:7, 1:7].copy())


def _candidates(ca: Multivector, cb: Multivector):
    for p in BASIS[:4]:
        yield cb * p + p * ca


def witness_candidates(a: Multivector, b: Multivector) -> list[Multivector]:
    """The four witness candidates for q*a = b*q, in scan order.

    Candidate t is cim(b)*e_t + e_t*cim(a) for t = 0..3; this order of the
    factors is what makes q multiply a from the left and b from the right.
    """
    return list(_candidates(a.cim(), b.cim()))


def _reduced_pair(a: Multivector, b: Multivector) -> tuple[Multivector, Multivector, int, float]:
    """(a * 2^-e, b * 2^-e, e, the larger norm of the two after scaling).

    A pair far from norm 1 is scaled by the power of two that reduces its
    larger element, so neither the quadratic invariants nor a product of
    the pair overflows or underflows.
    """
    a_norm, b_norm = a.norm(), b.norm()
    _, e, _ = _reduced(a if a_norm >= b_norm else b)
    if e:
        a, b = _scaled(a, -e), _scaled(b, -e)
        a_norm, b_norm = a.norm(), b.norm()
    return a, b, e, max(a_norm, b_norm)


def is_similar(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> SimilarityResult:
    """Decide similarity and build an invertible witness q with q*a = b*q.

    Comparisons are relative to the larger norm ``scale``, to the degree
    of each invariant: ``scale`` for the central part, ``scale^2`` for N
    and T.  The witness is e0 when the imaginary parts agree, else the
    first of :func:`witness_candidates` that is not ``is_singular(tol)``;
    raises SingularElement when there is none.
    """
    # decided on the reduced pair; the witness is scaled back
    a, b, e, scale = _reduced_pair(a, b)

    def agree(x, y) -> bool:
        return _within(max(map(abs, map(sub, x, y))), tol, scale)

    a_central = a.is_central(tol)
    b_central = b.is_central(tol)
    if a_central and b_central:
        if agree(a.coeffs, b.coeffs):
            return SimilarityResult(True, Multivector.basis(0), SimilarityReason.CENTRAL_EQUAL)
        # central elements coincide with their own central part
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if a_central != b_central:
        return SimilarityResult(False, None, SimilarityReason.CENTRAL_UNEQUAL)

    fa = a.functionals()
    fb = b.functionals()
    if not agree(a.coeffs[::7], b.coeffs[::7]):
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if not _within(fa.N - fb.N, tol, scale * scale):
        return SimilarityResult(False, None, SimilarityReason.N_MISMATCH)
    if not _within(fa.T - fb.T, tol, scale * scale):
        return SimilarityResult(False, None, SimilarityReason.T_MISMATCH)

    ca = a.cim()
    cb = b.cim()
    if agree(ca.coeffs, cb.coeffs):
        return SimilarityResult(True, Multivector.basis(0), SimilarityReason.INVARIANTS_MATCH)
    for witness in _candidates(ca, cb):
        if not witness.is_singular(tol):
            return SimilarityResult(True, _scaled(witness, e), SimilarityReason.INVARIANTS_MATCH)
    raise SingularElement(f"no witness candidate is invertible within tol = {tol:g}")
