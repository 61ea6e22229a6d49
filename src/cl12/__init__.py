"""Clifford algebra Cl(1,2) over the reals.

Multivector arithmetic, the 8x8 left/right matrix representation,
closed-form classical and generalized inverses, linear equations of the
form a*x*b = d, similarity decisions with explicit witnesses, and an
exact-rational oracle (:mod:`cl12.oracle`) that independently verifies
every closed form.

``import cl12`` loads :mod:`~cl12.multivector` and :mod:`~cl12.inverse`,
which every command needs.  The names of :mod:`~cl12.matrep`,
:mod:`~cl12.similarity` and :mod:`~cl12.solver` resolve on first use
(PEP 562): the first of them imports its module and binds all of that
module's names here, so a process compiles only the modules it uses.
``inverse`` must stay eager because the submodule and the function share
a name: importing ``cl12.inverse`` sets the package attribute to the
module, and only the function bound after it, while the package loads,
makes ``from cl12 import inverse`` the function whatever ran first.  The
oracle and :mod:`~cl12.verify` load only when imported by name.
"""

import sys

__version__ = "0.1.0"

#: each module -> the public names the package takes from it
_HOMES = {
    "multivector": ("BASIS", "DEFAULT_TOL", "EigenSpectrum", "Functionals", "Multivector",
                    "e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "eigenvalues",
                    "format_multivector"),
    "inverse": ("MPKind", "MPResult", "SingularElement", "inverse", "mp_inverse"),
    "matrep": ("K8", "S8", "left_matrix", "right_matrix", "vectorize"),
    "similarity": ("ConjugationMatrix", "SimilarityReason", "SimilarityResult", "conjugate_by",
                   "conjugation_matrix", "is_similar"),
    "solver": ("SolutionSet", "solve_ax", "solve_axb", "solve_xb"),
}
_EAGER = ("multivector", "inverse")
_LAZY = {name: module for module, names in _HOMES.items() if module not in _EAGER
         for name in names}
__all__ = sorted(name for names in _HOMES.values() for name in names)


def _bind(module: str) -> None:
    path = f"{__name__}.{module}"
    __import__(path)  # the import statement's own path, which -X importtime reports
    globals().update((name, getattr(sys.modules[path], name)) for name in _HOMES[module])


for _module in _EAGER:
    _bind(_module)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
