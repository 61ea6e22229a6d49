"""Clifford algebra Cl(1,2) over the reals.

Multivector arithmetic, the 8x8 left/right matrix representation,
closed-form classical and generalized inverses, linear equations of the
form a*x*b = d, similarity decisions with explicit witnesses, and an
exact-rational oracle (:mod:`cl12.oracle`) that independently verifies
every closed form.
"""

from .inverse import MPKind, MPResult, SingularElement, inverse, mp_inverse
from .matrep import K8, S8, left_matrix, right_matrix, vectorize
from .multivector import (
    BASIS,
    DEFAULT_TOL,
    EigenSpectrum,
    Functionals,
    Multivector,
    e0,
    e1,
    e2,
    e3,
    e4,
    e5,
    e6,
    e7,
    eigenvalues,
    format_multivector,
)
from .similarity import (
    ConjugationMatrix,
    SimilarityReason,
    SimilarityResult,
    conjugate_by,
    conjugation_matrix,
    is_similar,
    witness_candidates,
)
from .solver import SolutionSet, solve_ax, solve_axb, solve_xb

__version__ = "0.1.0"

__all__ = [
    "BASIS",
    "DEFAULT_TOL",
    "ConjugationMatrix",
    "EigenSpectrum",
    "Functionals",
    "K8",
    "MPKind",
    "MPResult",
    "Multivector",
    "S8",
    "SimilarityReason",
    "SimilarityResult",
    "SingularElement",
    "SolutionSet",
    "conjugate_by",
    "conjugation_matrix",
    "e0",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "eigenvalues",
    "format_multivector",
    "inverse",
    "is_similar",
    "left_matrix",
    "mp_inverse",
    "right_matrix",
    "solve_ax",
    "solve_axb",
    "solve_xb",
    "vectorize",
    "witness_candidates",
]
