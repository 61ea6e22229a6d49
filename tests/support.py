"""Shared generators and hypothesis strategies for the test suite."""

import sys

import hypothesis.strategies as st

from cl12 import Multivector, multivector, similarity, solver  # noqa: F401 (bind _make)
from cl12.verify import random_invertible, random_multivector, random_singular  # noqa: F401

coefficients = st.integers(min_value=-5, max_value=5)

multivectors = st.builds(Multivector, st.tuples(*[coefficients] * 8))

small_scalars = st.integers(min_value=-4, max_value=4)


def random_nonzero_mixed(rng):
    """Nonzero input, alternating between generic and forced-singular."""
    while True:
        a = random_singular(rng) if rng.randrange(2) else random_multivector(rng)
        if not a.is_zero():
            return a


def count_makes(monkeypatch):
    """A list that gains the coefficients of every element ``_make`` builds,
    through each ``cl12`` module that binds it, until the test ends."""
    made, make = [], multivector._make

    def counted(c):
        made.append(c)
        return make(c)

    for name, module in list(sys.modules.items()):
        if name.startswith("cl12.") and getattr(module, "_make", None) is make:
            monkeypatch.setattr(module, "_make", counted)
    return made
