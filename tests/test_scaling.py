"""Metamorphic scale tests: scaling the inputs by 2^k changes no verdict.

Scaling by a power of two is exact while the coefficients stay in the
double range, so the library must give the same kind, the same solvability
and the same similarity verdict at every such scale, and results scaled by
exactly the matching power of two.  Where a result leaves the double range
the only exception allowed is ValueError.
"""

import math
import random

import pytest

from cl12 import (
    MPKind,
    Multivector,
    SimilarityReason,
    conjugate_by,
    conjugation_matrix,
    e0,
    e1,
    e2,
    e3,
    e4,
    e6,
    e7,
    eigenvalues,
    inverse,
    is_similar,
    mp_inverse,
    solve_ax,
    solve_axb,
    solve_xb,
)
from cl12.verify import run_all
from support import random_invertible, random_multivector, random_nonzero_mixed

# exponents across the whole double range and a little beyond, dense enough
# to cross the reduction window's edges near 2^+-200
EXPONENTS = range(-1080, 1030, 3)


def _ldexp(a: Multivector, k: int) -> Multivector | None:
    """a * 2^k, or None when a coefficient overflows or loses bits."""
    try:
        c = [math.ldexp(x, k) for x in a.coeffs]
    except OverflowError:
        return None
    if any(math.ldexp(y, -k) != x for x, y in zip(a.coeffs, c)):
        return None
    return Multivector(c)


def _bits(a: Multivector) -> list[str]:
    return [x.hex() for x in a.coeffs]


def test_scale_repros():
    base = e0 + e2 + e4
    assert mp_inverse(1e-3 * base).kind is MPKind.INVERTIBLE
    sol = solve_ax(1e-3 * base, e0)
    assert sol.solvable and sol.dim == 0
    assert inverse(1e80 * base).isclose(inverse(base) / 1e80, 1e-15)
    assert mp_inverse(1e-100 * base).kind is MPKind.INVERTIBLE
    r = is_similar(1e-6 * e2, 1e-6 * e6)
    assert r.similar and r.witness == 1e-6 * (-e3 - e7)
    assert eigenvalues(1e300 * e1).values == (-1e300, -1e300, 1e300, 1e300)
    assert eigenvalues(1e300 * (e1 + e2)).values == (0, 0, 0, 0)  # nilpotent
    # q * x overflows, but q x q^-1 does not change when q is scaled
    q, x = e0 + e2 + e4, e1 + 2 * e3 - e6
    assert conjugate_by(2.0 ** 900 * q, 2.0 ** 300 * x) == 2.0 ** 300 * conjugate_by(q, x)
    # c0^2 - c1^2 is inf - inf in floats; the true N and P are 0
    f = (2.0 ** 530 * (e0 + e1)).functionals()
    assert (f.N, f.T, f.P) == (0.0, 0.0, 0.0) and f.K == f.T1 == math.inf
    # isclose is relative to the larger norm, with no absolute floor
    assert not (2.0 ** -600 * e1).isclose(2.0 ** -600 * e2)
    rng = random.Random(1)
    for _ in range(40):
        a = random_multivector(rng)
        b = a + 2.0 ** -rng.randint(24, 36) * random_multivector(rng)
        for k in EXPONENTS[::8]:
            sa, sb = _ldexp(a, k), _ldexp(b, k)
            if None in (sa, sb) or min(abs(x) for x in sa.coeffs + sb.coeffs if x) < 2.0 ** -1022:
                continue  # a coefficient left the normal range
            assert sa.isclose(sb) == a.isclose(b), k


def test_mp_inverse_commutes_with_power_of_two_scaling():
    rng = random.Random(0)
    for _ in range(30):
        a = random_nonzero_mixed(rng)
        ref = mp_inverse(a)
        for k in EXPONENTS:
            scaled = _ldexp(a, k)
            if scaled is None:
                continue
            assert scaled.is_singular() == a.is_singular()
            try:  # rounded like the library's result where it is subnormal
                want = Multivector(math.ldexp(x, -k) for x in ref.pinv.coeffs)
            except OverflowError:  # the inverse leaves the double range
                with pytest.raises(ValueError):
                    mp_inverse(scaled)
                continue
            got = mp_inverse(scaled)
            assert got.kind is ref.kind
            assert _bits(got.pinv) == _bits(want)
            assert got.condition == ref.condition


def test_results_beyond_the_double_range_raise_value_error():
    base = e0 + e2 + e4
    for k in (-1026, -1040, -1074):
        tiny = Multivector(math.ldexp(x, k) for x in base.coeffs)
        with pytest.raises(ValueError):
            mp_inverse(tiny)
        with pytest.raises(ValueError):
            inverse(tiny)
    # the largest doubles are reduced, never squared into an overflow
    big = 1.5e308 * base
    assert mp_inverse(big).kind is MPKind.INVERTIBLE
    assert is_similar(big, big).reason is SimilarityReason.INVARIANTS_MATCH
    with pytest.raises(ValueError):  # the witness -2 + 2 e2 overflows
        is_similar(1.5e308 * (e0 + e1 + e2), 1.5e308 * (e0 + e2 + e3))


def _system(rng):
    a, b = random_nonzero_mixed(rng), random_nonzero_mixed(rng)
    d = a * random_multivector(rng, -3, 3) * b if rng.randrange(2) else random_multivector(rng)
    return a, b, d


def test_solve_axb_verdicts_do_not_depend_on_scale():
    rng = random.Random(3)
    for _ in range(80):
        a, b, d = _system(rng)
        ref = solve_axb(a, b, d)
        for _ in range(40):
            i, j = rng.randint(-1100, 1100), rng.randint(-1100, 1100)
            args = _ldexp(a, i), _ldexp(b, j), _ldexp(d, i + j)
            if None in args:
                continue
            try:
                got = solve_axb(*args)
            except ValueError:
                # only where an inverse leaves the double range
                assert max(abs(i), abs(j)) > 1000
                continue
            assert (got.solvable, got.dim) == (ref.solvable, ref.dim), (i, j)


def _pairs(rng):
    # conjugated pairs (similar), pairs with a bumped central part, and
    # random pairs (almost always dissimilar)
    for _ in range(30):
        a = random_multivector(rng)
        b = conjugate_by(random_invertible(rng), a)
        yield a, b
        yield a, Multivector([b.coeffs[0] + 1.0] + list(b.coeffs[1:]))
        yield a, random_multivector(rng)


def test_is_similar_verdicts_do_not_depend_on_scale():
    rng = random.Random(5)
    for a, b in _pairs(rng):
        ref = is_similar(a, b)
        for k in EXPONENTS[::4]:
            sa, sb = _ldexp(a, k), _ldexp(b, k)
            if sa is None or sb is None:
                continue
            want = None if ref.witness is None else (
                ref.witness if ref.witness == e0 else _ldexp(ref.witness, k))
            if ref.witness is not None and want is None:
                with pytest.raises(ValueError):
                    is_similar(sa, sb)
                continue
            got = is_similar(sa, sb)
            assert (got.similar, got.reason) == (ref.similar, ref.reason), k
            if want is not None:
                assert _bits(got.witness) == _bits(want)


def test_tolerance_must_lie_in_unit_interval():
    for tol in (-1e-9, 1.0, 2.0, math.nan, math.inf):
        for call in (lambda: (e1 + e2).is_singular(tol), lambda: mp_inverse(e1, tol),
                     lambda: inverse(e0, tol), lambda: e0.isclose(e1, tol),
                     lambda: e0.is_central(tol), lambda: solve_ax(e1, e1, tol),
                     lambda: is_similar(e2, e4, tol)):
            with pytest.raises(ValueError):
                call()


# every public function that takes a tolerance, called with it
TOL_TAKERS = {
    "is_singular": lambda tol: (e1 + e2).is_singular(tol),
    "is_central": lambda tol: e0.is_central(tol),
    "isclose": lambda tol: e0.isclose(e1, tol),
    "inverse": lambda tol: inverse(e0, tol),
    "mp_inverse": lambda tol: mp_inverse(e1, tol),
    "solve_axb": lambda tol: solve_axb(e1, e2, e3, tol),
    "solve_ax": lambda tol: solve_ax(e1, e1, tol),
    "solve_xb": lambda tol: solve_xb(e1, e1, tol),
    "is_similar": lambda tol: is_similar(e2, e4, tol),
    "conjugate_by": lambda tol: conjugate_by(e0 + e2, e1, tol),
    "conjugation_matrix": lambda tol: conjugation_matrix(e0 + e2, tol),
    "run_all": lambda tol: run_all(1, 0, tol),
    "random_invertible": lambda tol: random_invertible(random.Random(0), tol),
}


@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
@pytest.mark.parametrize("tol", [-1e-9, 1.0, math.nan])
def test_every_tolerance_taker_checks_its_tolerance(name, tol):
    with pytest.raises(ValueError, match="tolerance must be nonnegative and below 1"):
        TOL_TAKERS[name](tol)
    TOL_TAKERS[name](1e-9)


def test_conjugation_matrix_does_not_depend_on_the_scale_of_q():
    q = e0 + e2 + e4
    want = repr(conjugation_matrix(q))
    for k in (-1070, -600, 600, 1000):
        assert repr(conjugation_matrix(q * 2.0 ** k)) == want


def test_large_tolerance_keeps_units_invertible():
    # K = (s + N) / 2 >= s * (1 - sqrt(tol)) / 2 > 0 in the singular branch
    for tol in (0.5, 0.9, 1.0 - 2.0 ** -53):
        for t in range(1, 8):
            r = mp_inverse(Multivector.basis(t), tol)
            assert r.kind is MPKind.INVERTIBLE
            assert r.pinv * Multivector.basis(t) == e0
    rng = random.Random(11)
    for _ in range(500):
        a = random_nonzero_mixed(rng)
        r = mp_inverse(a, 0.9)
        assert (r.kind is MPKind.SINGULAR_NONZERO) == (r.condition <= 0.9)
    assert is_similar(e2, e6, 0.9).witness == -e3 - e7
