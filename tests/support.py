"""Shared generators and hypothesis strategies for the test suite."""

import sys

import hypothesis.strategies as st

from cl12 import Multivector, multivector, similarity, solver  # noqa: F401 (loaded to count)
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


def count_calls(monkeypatch, name):
    """A list that gains the argument tuple of every call of the ``cl12``
    function ``name``, through each ``cl12`` module that binds it, until
    the test ends."""
    modules = [module for key, module in list(sys.modules.items()) if key.startswith("cl12.")]
    original = next(getattr(module, name) for module in modules
                    if getattr(getattr(module, name, None), "__module__", None) == module.__name__)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls
