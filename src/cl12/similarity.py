"""Similarity of algebra elements, with explicit witnesses.

Two elements are similar when q*a = b*q for some invertible q.  Central
elements (the span of 1 and e7) are only similar to themselves; a central
and a non-central element are never similar, since conjugation fixes the
central part.  For two non-central elements the decision reduces to three
invariants: the central parts, N and T must agree.

When they do, a witness solves q*cim(a) = cim(b)*q, and every element of
the form cim(b)*p + p*cim(a) does, because cim(a)^2 = cim(b)^2 lies in
the center.  At least one of the candidates with p = e0..e3 is invertible;
the scan here extends through e4..e7 and then random p for belt and
braces.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .inverse import inverse
from .matrep import left_matrix, right_matrix
from .multivector import BASIS, DEFAULT_TOL, Multivector

__all__ = [
    "SimilarityReason",
    "SimilarityResult",
    "ConjugationMatrix",
    "conjugate_by",
    "conjugation_matrix",
    "is_similar",
    "witness_candidates",
]


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
    full = left_matrix(q) @ right_matrix(inverse(q, tol))
    return ConjugationMatrix(full=full, block=full[1:7, 1:7].copy())


def witness_candidates(a: Multivector, b: Multivector) -> list[Multivector]:
    """The basis-element witness candidates for q*a = b*q, in scan order.

    Candidate t is cim(b)*e_t + e_t*cim(a); this order of the factors is
    what makes q multiply a from the left and b from the right.
    """
    ca = a.cim()
    cb = b.cim()
    return [cb * e + e * ca for e in BASIS]


def _random_factors(seed: int):
    # A generator, so the seeded stream is only set up when the basis
    # candidates run out.
    rng = random.Random(seed)
    for _ in range(64):
        yield Multivector([rng.randint(-3, 3) for _ in range(8)])


def is_similar(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL,
               seed: int = 0) -> SimilarityResult:
    """Decide similarity and build an invertible witness q with q*a = b*q.

    Comparison tolerances scale with the degree of each invariant: linear
    for the central part, quadratic for N and T.  The random fallback for
    the witness scan is driven by ``seed`` and so is deterministic.
    """
    scale = max(a.norm(), b.norm())
    lin = tol * (1.0 + scale)
    quad = tol * (1.0 + scale * scale)

    a_central = a.is_central(lin)
    b_central = b.is_central(lin)
    if a_central and b_central:
        if all(abs(x - y) <= lin for x, y in zip(a.coeffs, b.coeffs)):
            return SimilarityResult(True, Multivector.basis(0), SimilarityReason.CENTRAL_EQUAL)
        # central elements coincide with their own central part
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if a_central != b_central:
        return SimilarityResult(False, None, SimilarityReason.CENTRAL_UNEQUAL)

    fa = a.functionals()
    fb = b.functionals()
    if not (abs(a.coeffs[0] - b.coeffs[0]) <= lin and abs(a.coeffs[7] - b.coeffs[7]) <= lin):
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if abs(fa.N - fb.N) > quad:
        return SimilarityResult(False, None, SimilarityReason.N_MISMATCH)
    if abs(fa.T - fb.T) > quad:
        return SimilarityResult(False, None, SimilarityReason.T_MISMATCH)

    ca = a.cim()
    cb = b.cim()
    if all(abs(x - y) <= lin for x, y in zip(ca.coeffs, cb.coeffs)):
        witness = Multivector.basis(0)
    else:
        # The candidates of witness_candidates, formed one at a time and in
        # the same order, then random p; the scan stops at the first
        # invertible one, so the random draws are rarely made.
        witness = None
        for p in itertools.chain(BASIS, _random_factors(seed)):
            cand = cb * p + p * ca
            if not cand.is_singular(tol):
                witness = cand
                break
        assert witness is not None, "no invertible witness found for matching invariants"
    return SimilarityResult(True, witness, SimilarityReason.INVARIANTS_MATCH)
