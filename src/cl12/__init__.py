"""Clifford algebra Cl(1,2) over the reals.

Multivector arithmetic, the 8x8 left/right matrix representation,
closed-form classical and generalized inverses, linear equations of the
form a*x*b = d, similarity decisions with explicit witnesses, and an
exact-rational oracle (:mod:`cl12.oracle`) that independently verifies
every closed form.

The names that need numpy (the matrix representation and the solver) are
imported on first use, so ``import cl12`` and the closed forms built from
the eight coefficients alone do not load numpy.
"""

import importlib

from .inverse import MPKind, MPResult, SingularElement, inverse, mp_inverse
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

#: Public name -> the numpy-backed submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("K8", "S8", "devectorize", "left_matrix", "right_matrix", "vectorize"),
        "matrep",
    ),
    **dict.fromkeys(("SolutionSet", "solve_ax", "solve_axb", "solve_xb"), "solver"),
}


def __getattr__(name):
    # PEP 562: called only for a name the module does not define yet
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
    "devectorize",
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
