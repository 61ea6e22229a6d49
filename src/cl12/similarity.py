"""Similarity of algebra elements, with explicit witnesses.

Two elements are similar when q*a = b*q for some invertible q.  Central
elements (the span of 1 and e7) are only similar to themselves; a central
and a non-central element are never similar, since conjugation fixes the
central part.  The rest is decided on the 2x2 complex images A and B of
:mod:`cl12.multivector`, under which e7 -> -i and det = N - 2T*i: two
non-scalar 2x2 matrices are similar exactly when their traces and dets
agree.  Write A = alpha*I + U with alpha = c0 - c7*i and U, the image of
cim(a), traceless; the trace is 2*alpha, so the paper's three invariants,
the central part, N and T, are the trace and the real and imaginary parts
of the det.

The witness comes from a cyclic vector.  A non-scalar 2x2 matrix has at
most two eigenlines, so some v is no eigenvector of U and K_A = [v, U v]
is invertible; U^2 = -det(U) I (Cayley-Hamilton, tr U = 0) gives
U K_A = K_A C_U with C_U = [[0, -det U], [1, 0]].  With w and K_B = [w, V w]
likewise for V, the image of cim(b), Q = K_B adj(K_A) satisfies
Q U - V Q = K_B (C_U - C_V) adj(K_A), which vanishes when det U = det V.
v is one of the six eigenvectors e1, e2, e1 +- e2, e1 +- i*e2 of the Pauli
matrices: of the pair that belongs to U's smallest Pauli coefficient, the
one with the larger |det K_A|, which is then at least |v|^2 |U|_F / sqrt(3).
Scaling the second columns by a common power of two, to balance them,
would multiply Q by that power and change nothing else, so Q is taken as
it is: degree 1 in the pair, scaling with it by powers of two bit for bit.

In floats the invariants agree only to ``tol``.  C_U - C_V has the one
entry -(det U - det V), so Q A - B Q = (alpha_a - alpha_b) Q +
(det U - det V) w (v1, -v0)^T exactly, and as the coefficient norm is the
Frobenius norm over sqrt(2),
|q*a - b*q| <= |alpha_a - alpha_b| |q| + |det U - det V| |v| |w| / sqrt(2).
The witness is returned when that bound is at most 8*tol*|q|*scale and q
is not ``is_singular``; otherwise ``is_similar`` raises
``SingularElement``.  That is forced when the norms of L(a) and L(b)
differ by a factor above 2 / sqrt(tol): b = q a q^-1 makes cond2(L(q)) at
least that factor for every witness q, and P / s^2 <= 4 / cond2^2 <= tol.
An example is e1 + e2 and 1e-5 * (e1 + e2), two similar nilpotents.
In floats every comparison is relative to the pair's scale, so verdicts
do not change when both elements are scaled by a power of two.  The pair
is rescaled by ``_reduced_pair``, the one pair rule, which the CLI's
witness residual shares: by the exponent ``_reduce`` takes off its larger
element, 0 inside the window, so a desk pair is decided on its own
coefficients.  ``is_similar`` skips the call when the larger norm is in it.
"""

from __future__ import annotations

import enum
import math
from math import hypot
from typing import NamedTuple

from .inverse import SingularElement, inverse
from .multivector import (BASIS, DEFAULT_TOL, Multivector, _S_HIGH, _S_LOW, _check_tol, _cim_m2,
                          _from_m2, _is_singular, _make, _ntp, _record, _reduce, _scaled, _within,
                          e0)

__all__ = ["SimilarityReason", "SimilarityResult", "ConjugationMatrix", "conjugate_by",
           "conjugation_matrix", "is_similar"]


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
    cx, e, _ = _reduce(x.coeffs)
    q = _make(_reduce(q.coeffs)[0])
    return _scaled(q * _make(cx) * inverse(q, tol), e)


def conjugation_matrix(q: Multivector, tol: float = DEFAULT_TOL) -> ConjugationMatrix:
    q = _make(_reduce(q.coeffs)[0])  # as in conjugate_by: the map does not change when q is scaled
    q_inv = inverse(q, tol)
    full = tuple(zip(*((q * e * q_inv).coeffs for e in BASIS)))
    return ConjugationMatrix(full, tuple(row[1:7] for row in full[1:7]))


_ROOT2 = math.sqrt(2.0)


def _cyclic(u00: complex, u01: complex, u10: complex):
    """(v0, v1, |v|, U v) for the cyclic vector v of U = [[u00, u01], [u10, -u00]]
    (module docstring).  U = (s X + r/i Y + t Z) / 2 in the Pauli matrices,
    and det [v, U v] is u10 or -u01 for v = e1 or e2 (eigenvectors of Z),
    r -+ t for e1 +- e2 (of X) and s -+ i t for e1 +- i e2 (of Y)."""
    r, s, t = u10 - u01, u10 + u01, u00 + u00
    x, y, z = abs(s), abs(r), abs(t)  # twice the Pauli coefficients' moduli
    if z <= x and z <= y:
        if abs(u10) >= abs(u01):
            return 1.0, 0j, 1.0, u00, u10
        return 0j, 1.0, 1.0, u01, -u00
    if x <= y:
        if abs(r - t) >= abs(r + t):
            return 1.0, 1.0, _ROOT2, u00 + u01, u10 - u00
        return 1.0, -1.0, _ROOT2, u00 - u01, u10 + u00
    it = 1j * t
    if abs(s - it) >= abs(s + it):
        return 1.0, 1j, _ROOT2, u00 + 1j * u01, u10 - 1j * u00
    return 1.0, -1j, _ROOT2, u00 - 1j * u01, u10 + 1j * u00


def _reduced_pair(a: Multivector, b: Multivector, a_norm: float,
                  b_norm: float) -> tuple[Multivector, Multivector, int, float, float]:
    """(a * 2^-e, b * 2^-e, e, and the norms of the two after scaling),
    given the pair's norms.

    e is the exponent ``_reduce`` takes off the larger element, so neither
    the quadratic invariants nor a product of the pair overflows or
    underflows; inside the window it is 0 and the pair comes back as it is.
    """
    e = _reduce((a if a_norm >= b_norm else b).coeffs)[1]
    if e:
        a, b = _scaled(a, -e), _scaled(b, -e)
        a_norm, b_norm = a.norm(), b.norm()
    return a, b, e, a_norm, b_norm


# Results whose witness is e0 or None are immutable, so each is built once and shared.
_CENTRAL_EQUAL = SimilarityResult(True, e0, SimilarityReason.CENTRAL_EQUAL)
_CENTRAL_UNEQUAL = SimilarityResult(False, None, SimilarityReason.CENTRAL_UNEQUAL)
_CRE_MISMATCH = SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
_N_MISMATCH = SimilarityResult(False, None, SimilarityReason.N_MISMATCH)
_T_MISMATCH = SimilarityResult(False, None, SimilarityReason.T_MISMATCH)
_CIM_EQUAL = SimilarityResult(True, e0, SimilarityReason.INVARIANTS_MATCH)
_INVARIANTS_MATCH = SimilarityReason.INVARIANTS_MATCH


def is_similar(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> SimilarityResult:
    """Decide similarity and build an invertible witness q with q*a = b*q.

    Comparisons are relative to the larger norm ``scale``, to the degree
    of each invariant: ``scale`` for the central part (the trace),
    ``scale^2`` for the real part of the det and ``2*scale^2`` for its
    imaginary part, -2T.  The witness is e0 when the imaginary parts agree,
    else the cyclic-vector witness of the module docstring when it is not
    ``is_singular(tol)`` and |q*a - b*q| <= 8*tol*|q|*scale; raises
    SingularElement when it fails either test.
    """
    _check_tol(tol)
    ca, cb = a.coeffs, b.coeffs
    a_norm, b_norm = hypot(*ca), hypot(*cb)  # Multivector.norm
    scale = max(a_norm, b_norm)
    e = 0
    if not _S_LOW <= scale * scale <= _S_HIGH:  # decided on the reduced pair, witness scaled back
        a, b, e, a_norm, b_norm = _reduced_pair(a, b, a_norm, b_norm)
        ca, cb = a.coeffs, b.coeffs
        scale = max(a_norm, b_norm)
    a0, a1, a2, a3, a4, a5, a6, a7 = ca
    b0, b1, b2, b3, b4, b5, b6, b7 = cb

    # Multivector.is_central on the norms computed above
    a_central = _within(max(abs(a1), abs(a2), abs(a3), abs(a4), abs(a5), abs(a6)), tol, a_norm)
    b_central = _within(max(abs(b1), abs(b2), abs(b3), abs(b4), abs(b5), abs(b6)), tol, b_norm)
    d0, d7 = a0 - b0, a7 - b7  # the trace gap is 2 (d0 - d7 i)
    if a_central and b_central:
        if _within(max(abs(d0), abs(a1 - b1), abs(a2 - b2), abs(a3 - b3), abs(a4 - b4),
                       abs(a5 - b5), abs(a6 - b6), abs(d7)), tol, scale):
            return _CENTRAL_EQUAL
        # central elements coincide with their own central part
        return _CRE_MISMATCH
    if a_central != b_central:
        return _CENTRAL_UNEQUAL
    if not _within(max(abs(d0), abs(d7)), tol, scale):
        return _CRE_MISMATCH

    na, ta, _ = _ntp(ca)  # det A = N - 2T i, from the coefficients
    nb, tb, _ = _ntp(cb)
    if not _within(na - nb, tol, scale * scale):
        return _N_MISMATCH
    if not _within(ta - tb, tol, scale * scale):  # as |Im det A - Im det B| <= 2 tol scale^2
        return _T_MISMATCH
    if _within(max(abs(a1 - b1), abs(a2 - b2), abs(a3 - b3), abs(a4 - b4), abs(a5 - b5),
                   abs(a6 - b6)), tol, scale):
        return _CIM_EQUAL

    u00, u01, u10 = _cim_m2(ca)  # the images U and V of cim(a) and cim(b)
    v00, v01, v10 = _cim_m2(cb)
    det_gap = v00 * v00 + v01 * v10 - u00 * u00 - u01 * u10  # det U - det V
    # Q = [w, V w] adj([v, U v]), and its residual bound (module docstring)
    v0, v1, v_norm, uv0, uv1 = _cyclic(u00, u01, u10)
    w0, w1, w_norm, vw0, vw1 = _cyclic(v00, v01, v10)
    witness = _from_m2(((w0 * uv1 - vw0 * v1, vw0 * v0 - w0 * uv0),
                        (w1 * uv1 - vw1 * v1, vw1 * v0 - w1 * uv0)))
    q_norm = hypot(*witness.coeffs)
    residual = hypot(d0, d7) * q_norm + abs(det_gap) * (v_norm * w_norm / _ROOT2)
    if _within(residual, tol, 8.0 * q_norm * scale) and not _is_singular(witness, tol):
        return _record(SimilarityResult, (True, _scaled(witness, e), _INVARIANTS_MATCH))
    raise SingularElement(f"no witness is invertible within tol = {tol:g}"
                          " and meets |qa - bq| <= 8 tol |q| scale")
