"""Shared generators and hypothesis strategies for the test suite."""

import math
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


def square_sum(c):
    # left to right: from Python 3.12 on, sum() adds floats with compensation
    s = 0.0
    for x in c:
        s += x * x
    return s


def ref_reduced(a):
    """(r, e, square sum of r) with a = r * 2^e, as the library reduces an
    element, written out apart from it: r is ``a`` itself while the square
    sum lies in [2^-400, 2^400] or ``a`` is zero, else its largest
    |coefficient| is in [1/2, 1)."""
    s = square_sum(a.coeffs)
    if 2.0 ** -400 <= s <= 2.0 ** 400 or a.is_zero():
        return a, 0, s
    e = math.frexp(max(map(abs, a.coeffs)))[1]
    r = Multivector(math.ldexp(x, -e) for x in a.coeffs)
    return r, e, square_sum(r.coeffs)


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
