"""Similarity of algebra elements, with explicit witnesses.

Two elements are similar when q*a = b*q for some invertible q.  Central
elements (the span of 1 and e7) are only similar to themselves; a central
and a non-central element are never similar, since conjugation fixes the
central part.  For two non-central elements the decision reduces to three
invariants: the central parts, N and T must agree.

When they do, u = cim(a) and v = cim(b) have equal central squares, so
every q = v*p + p*u solves q*a = b*q.  The witness is the first
invertible candidate with p = e0, e1, e2, e3, and one of them always is.
With p = e_t, candidate t is a signed permutation of the coefficients:
its coefficient k is +-v_(k^t) +- u_(k^t), signs from ``MUL_SIGN``, so
it takes no product.

* Cl(1,2) is M2(C) under the map stated in :mod:`cl12.multivector`,
  with e7 -> -i and P(x) = |det x|^2; e0..e3 are a C-basis, orthogonal
  for the trace form.  p = e_t*e7 = +-e_(t^7) only
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

In floats the invariants agree only to ``tol``, so u^2 - v^2 need not
vanish, and candidate t leaves the residual q*a - b*q = (cre(a) -
cre(b))*q + (u^2 - v^2)*e_t.  A candidate that cancels to noise is then
invertible and still no witness.  So the witness is the first candidate
that is not ``is_singular`` and whose residual is at most 8*tol*|q|*scale,
bounded without a product: u^2 = -(N(u) + 2T(u) e7), so the residual is
at most hypot(dN, 2dT) + (|dc0| + |dc7|)*|q|, with dN = N(u) - N(v),
dT = T(u) - T(v) and dc0, dc7 the differences of a's and b's
coefficients 0 and 7.
In floats every comparison is relative to the pair's scale, so verdicts
do not change when both elements are scaled by a power of two.
``is_similar`` raises ``SingularElement`` when no candidate passes both
tests.  That is forced when the norms of L(a) and L(b) differ
by a factor above 2 / sqrt(tol): b = q a q^-1 makes cond2(L(q)) at least
that factor for every witness q, and P / s^2 <= 4 / cond2^2 <= tol.  An
example is e1 + e2 and 1e-5 * (e1 + e2), two similar nilpotents.
"""

from __future__ import annotations

import enum
import math
from operator import sub
from typing import NamedTuple

from .inverse import SingularElement, inverse
from .multivector import (BASIS, DEFAULT_TOL, MUL_SIGN, Multivector, _check_tol, _is_singular,
                          _make, _ntp, _reduced, _scaled, _within, e0)

__all__ = ["SimilarityReason", "SimilarityResult", "ConjugationMatrix", "conjugate_by",
           "conjugation_matrix", "is_similar", "witness_candidates"]


class SimilarityReason(enum.Enum):
    CENTRAL_EQUAL = "CentralEqual"
    CENTRAL_UNEQUAL = "CentralUnequal"
    INVARIANTS_MATCH = "InvariantsMatch"
    CRE_MISMATCH = "CreMismatch"
    N_MISMATCH = "NMismatch"
    T_MISMATCH = "TMismatch"


class SimilarityResult(NamedTuple):
    similar: bool
    witness: Multivector | None
    reason: SimilarityReason


class ConjugationMatrix(NamedTuple):
    """Matrix of x -> q*x*q^{-1} and its central block, as tuples of rows.

    ``full`` is 8x8, column t the coefficients of q*e_t*q^{-1}, and
    block-diagonal diag(1, S, 1) up to rounding: the scalar and e7 lines
    are fixed, and ``block``, rows and columns 1..6 of ``full``, is the
    invertible 6x6 action on the e1..e6 components.
    """

    full: tuple[tuple[float, ...], ...]
    block: tuple[tuple[float, ...], ...]


def conjugate_by(q: Multivector, x: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """q * x * q^{-1}; raises SingularElement for non-invertible q.  Taken on
    q and x reduced by powers of two (it does not change when q is scaled)
    and scaled back by x's, so neither scale alone overflows a product."""
    x, e, _ = _reduced(x)
    q = _reduced(q)[0]
    return _scaled(q * x * inverse(q, tol), e)


def conjugation_matrix(q: Multivector, tol: float = DEFAULT_TOL) -> ConjugationMatrix:
    q = _reduced(q)[0]  # as in conjugate_by: the map does not change when q is scaled
    q_inv = inverse(q, tol)
    full = tuple(zip(*((q * e * q_inv).coeffs for e in BASIS)))
    return ConjugationMatrix(full, tuple(row[1:7] for row in full[1:7]))


# Candidate t, cb*e_t + e_t*ca, as a signed permutation: coefficient k is
# MUL_SIGN[j][t]*cb_j + MUL_SIGN[t][j]*ca_j + 0.0 with j = k^t, which is
# bit-identical to the two products and the sum (each product has one
# nonzero term per coefficient, and +-0.0 terms change no sum).
_CANDIDATE_TERMS = tuple(
    tuple((k ^ t, float(MUL_SIGN[k ^ t][t]), float(MUL_SIGN[t][k ^ t])) for k in range(8))
    for t in range(4)
)


def _candidates(a: tuple[float, ...], b: tuple[float, ...]):
    """The candidates of :func:`witness_candidates` from the coefficients
    ``a`` of cim(a) and ``b`` of cim(b), each built when it is reached."""
    for terms in _CANDIDATE_TERMS:
        yield _make(tuple([sb * b[j] + sa * a[j] + 0.0 for j, sb, sa in terms]))


def witness_candidates(a: Multivector, b: Multivector) -> list[Multivector]:
    """The four witness candidates for q*a = b*q, in scan order.

    Candidate t is cim(b)*e_t + e_t*cim(a) for t = 0..3; this order of the
    factors is what makes q multiply a from the left and b from the right.
    """
    return list(_candidates(a.cim().coeffs, b.cim().coeffs))


def _reduced_pair(a: Multivector, b: Multivector) -> tuple[Multivector, Multivector, int, float, float]:
    """(a * 2^-e, b * 2^-e, e, and the norms of the two after scaling).

    A pair far from norm 1 is scaled by the power of two that reduces its
    larger element, so neither the quadratic invariants nor a product of
    the pair overflows or underflows.
    """
    a_norm, b_norm = a.norm(), b.norm()
    _, e, _ = _reduced(a if a_norm >= b_norm else b)
    if e:
        a, b = _scaled(a, -e), _scaled(b, -e)
        a_norm, b_norm = a.norm(), b.norm()
    return a, b, e, a_norm, b_norm


def is_similar(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> SimilarityResult:
    """Decide similarity and build an invertible witness q with q*a = b*q.

    Comparisons are relative to the larger norm ``scale``, to the degree
    of each invariant: ``scale`` for the central part, ``scale^2`` for N
    and T.  The witness is e0 when the imaginary parts agree, else the
    first of :func:`witness_candidates` that is not ``is_singular(tol)``
    and satisfies |q*a - b*q| <= 8*tol*|q|*scale; raises SingularElement
    when there is none.
    """
    _check_tol(tol)
    # decided on the reduced pair; the witness is scaled back
    a, b, e, a_norm, b_norm = _reduced_pair(a, b)
    scale = max(a_norm, b_norm)

    def agree(x, y) -> bool:
        return _within(max(map(abs, map(sub, x, y))), tol, scale)

    # Multivector.is_central on the norms computed above
    a_central = _within(max(map(abs, a.coeffs[1:7])), tol, a_norm)
    b_central = _within(max(map(abs, b.coeffs[1:7])), tol, b_norm)
    if a_central and b_central:
        if agree(a.coeffs, b.coeffs):
            return SimilarityResult(True, e0, SimilarityReason.CENTRAL_EQUAL)
        # central elements coincide with their own central part
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if a_central != b_central:
        return SimilarityResult(False, None, SimilarityReason.CENTRAL_UNEQUAL)

    na, ta, _ = _ntp(a.coeffs)
    nb, tb, _ = _ntp(b.coeffs)
    if not agree(a.coeffs[::7], b.coeffs[::7]):
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if not _within(na - nb, tol, scale * scale):
        return SimilarityResult(False, None, SimilarityReason.N_MISMATCH)
    if not _within(ta - tb, tol, scale * scale):
        return SimilarityResult(False, None, SimilarityReason.T_MISMATCH)

    ca = (0.0, *a.coeffs[1:7], 0.0)  # the coefficients of cim(a) and cim(b)
    cb = (0.0, *b.coeffs[1:7], 0.0)
    if agree(ca, cb):
        return SimilarityResult(True, e0, SimilarityReason.INVARIANTS_MATCH)
    # the residual bound of the module docstring
    nca, tca, _ = _ntp(ca)
    ncb, tcb, _ = _ntp(cb)
    square_gap = math.hypot(nca - ncb, 2.0 * (tca - tcb))
    cre_gap = abs(a.coeffs[0] - b.coeffs[0]) + abs(a.coeffs[7] - b.coeffs[7])
    for witness in _candidates(ca, cb):
        q_norm = witness.norm()
        if (_within(square_gap + cre_gap * q_norm, tol, 8.0 * q_norm * scale)
                and not _is_singular(witness, tol)):
            return SimilarityResult(True, _scaled(witness, e), SimilarityReason.INVARIANTS_MATCH)
    raise SingularElement(f"no witness candidate is invertible within tol = {tol:g}"
                          " and meets |qa - bq| <= 8 tol |q| scale")
