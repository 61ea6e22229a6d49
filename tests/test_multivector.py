import copy
import math
import pickle
import random

import pytest
from hypothesis import given

from cl12 import (
    ConjugationMatrix,
    EigenSpectrum,
    Functionals,
    MPResult,
    Multivector,
    SimilarityResult,
    SolutionSet,
    conjugation_matrix,
    e0,
    e1,
    e2,
    e3,
    e4,
    e5,
    e6,
    e7,
    eigenvalues,
    is_similar,
    mp_inverse,
    oracle,
    solve_axb,
)
from cl12.multivector import MUL_SIGN, _cim_m2, _scaled, _to_m2
from support import multivectors, random_singular, small_scalars


def test_basis_products():
    assert e1 * e2 == e3
    assert e1 * e1 == e0
    assert e2 * e2 == -e0
    assert e4 * e4 == -e0
    assert e2 * e1 == -e3
    assert (e1 + e2) * (e1 - e2) == 2 * e0 - 2 * e3


@given(multivectors)
def test_identity_element(a):
    assert e0 * a == a
    assert a * e0 == a


def test_add_and_scale():
    assert e1 + e2 == Multivector((0, 1, 1, 0, 0, 0, 0, 0))
    assert 0 * (e1 + 3 * e5) == Multivector.zero()
    assert 2 * (e0 + e7) == Multivector((2, 0, 0, 0, 0, 0, 0, 2))
    assert (e0 + e1) / 2 == Multivector((0.5, 0.5, 0, 0, 0, 0, 0, 0))


def test_conjugate_examples():
    assert (e0 + e1 + e7).conjugate() == e0 - e1 + e7
    a = e0 + e2 + e4
    assert a * a.conjugate() == 3 * e0  # N = 3, T = 0


def test_prime_examples():
    assert (e6 + e7).prime() == -e6 - e7
    assert (e1 + e2).prime() == e1 - e2


@given(multivectors)
def test_involutions_are_involutions(a):
    assert a.conjugate().conjugate() == a
    assert a.prime().prime() == a


def test_cre_cim_examples():
    a = Multivector((1, -1, 1, 1, 0, 0, 0, -1))
    assert a.cre() == e0 - e7
    assert e7.cim() == Multivector.zero()
    # central part of a product is symmetric in the factors
    assert (e1 * e2).cre() == (e2 * e1).cre() == Multivector.zero()


@given(multivectors)
def test_cre_plus_cim(a):
    assert a.cre() + a.cim() == a
    assert 2 * a.cre() == a + a.conjugate()


def test_functionals_examples():
    assert (e0 + e2 + e4).functionals().P == 9.0
    z = Multivector.zero().functionals()
    assert z == Functionals(0, 0, 0, 0, 0, 0, 0)


@given(multivectors)
def test_p_is_n_squared_plus_4t_squared(a):
    f = a.functionals()
    assert f.P == f.N * f.N + 4.0 * f.T * f.T


def test_split_examples():
    a = e0 + e1 + e4 + e5
    a_h, a_big = a.split_h()
    assert a_h == e0 + e1 and a_big == e0 + e1
    assert e3.split_h() == (e3, Multivector.zero())
    assert e7.split_h() == (Multivector.zero(), e3)


@given(multivectors)
def test_split_reconstructs(a):
    a_h, a_big = a.split_h()
    span = {0, 1, 2, 3}
    assert all(c == 0 for t, c in enumerate(a_h.coeffs) if t not in span)
    assert all(c == 0 for t, c in enumerate(a_big.coeffs) if t not in span)
    assert a_h + a_big * e4 == a


def test_is_central():
    assert (3 * e0 - 2 * e7).is_central()
    assert not e1.is_central()
    assert (e0 + 1e-15 * e2).is_central(1e-12)
    assert not (e0 + 1e-15 * e2).is_central(0.0)
    # e2 genuinely fails centrality: it does not commute with e1
    assert e2 * e1 != e1 * e2


def test_is_singular():
    assert (e1 + e2).is_singular()
    assert not (e0 + e2 + e4).is_singular()
    assert Multivector.zero().is_singular()
    with pytest.raises(ValueError):
        e0.is_singular(-1.0)


def test_isclose_rejects_negative_tolerance():
    a = e0 + e2 + e4
    assert a.isclose(a, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        a.isclose(a, -1.0)


@given(multivectors)
def test_quartic_form_factorization(a):
    # the verify suite checks (a conj(a)) (N - 2T e7) = P; this is the other
    # association order
    f = a.functionals()
    central = Multivector((f.N, 0, 0, 0, 0, 0, 0, -2 * f.T))
    assert a * central * a.conjugate() == Multivector.scalar(f.P)


@given(multivectors, small_scalars)
def test_scaling_is_linear(a, lam):
    assert lam * a == a * lam
    assert (lam * a).coeffs == tuple(lam * c for c in a.coeffs)


def test_singular_structure():
    # P = 0 forces N = 0, so K = (s + N) / 2 is half the square sum s
    rng = random.Random(11)
    for _ in range(300):
        a = random_singular(rng)
        assert a.functionals().K == sum(c * c for c in a.coeffs) / 2


def test_immutability_and_validation():
    for name in ("coeffs", "_c", "weight"):  # the public name, the slot, a new name
        with pytest.raises(AttributeError):
            setattr(e1, name, (0.0,) * 8)
        with pytest.raises(AttributeError):
            delattr(e1, name)
    assert e1 == Multivector.basis(1) and e1.coeffs is e1._c
    with pytest.raises(ValueError):
        Multivector((1, 2, 3))
    with pytest.raises(ValueError):
        Multivector((math.nan,) * 8)
    with pytest.raises(ValueError):
        Multivector((math.inf,) + (0.0,) * 7)
    with pytest.raises(ValueError):
        Multivector.basis(8)


def test_constructor_cannot_refill_an_existing_element():
    # the constructor is __new__ alone, so running __init__ again on an
    # element leaves it as it was
    x = Multivector([1] * 8)
    x.__init__([0] * 8)
    assert x.coeffs == (1.0,) * 8


def test_division_by_zero_is_a_value_error():
    # like every other non-finite result; never a bare ZeroDivisionError
    for zero in (0, 0.0, -0.0):
        with pytest.raises(ValueError, match="by zero"):
            e1 / zero
    assert (e1 + e2) / 2 == Multivector((0, 0.5, 0.5, 0, 0, 0, 0, 0))


def test_pickle_and_copy_round_trip():
    # immutability refuses the default state restore; __reduce__ rebuilds
    # through the constructor, also inside the result types
    values = (e1, 2.5 * e3 - e7, mp_inverse(e1 + e2), solve_axb(e1 + e2, e0, e1 + e2),
              is_similar(e2, e6), eigenvalues(e1 + 2 * e7), conjugation_matrix(e0 + e2),
              oracle.exact_solve([[1, 2], [2, 4]], [1, 2]))
    for x in values:
        for clone in (copy.copy, copy.deepcopy, lambda y: pickle.loads(pickle.dumps(y))):
            y = clone(x)
            assert type(y) is type(x) and y == x


#: Every result type with its fields, in order.
RESULT_FIELDS = {
    MPResult: ("pinv", "kind", "condition"),
    EigenSpectrum: ("values", "multiplicity"),
    SolutionSet: ("solvable", "particular", "hom_basis", "dim", "residual"),
    SimilarityResult: ("similar", "witness", "reason"),
    ConjugationMatrix: ("full", "block"),
    oracle.ExactSolution: ("consistent", "particular", "nullspace"),
}


def test_result_types_are_named_tuples_with_frozen_fields():
    values = (mp_inverse(e1 + e2), eigenvalues(e1 + 2 * e7), solve_axb(e1 + e2, e0, e1),
              is_similar(e2, e6), conjugation_matrix(e0 + e2),
              oracle.exact_solve([[1, 2], [2, 4]], [1, 2]))
    assert [type(x) for x in values] == list(RESULT_FIELDS)
    for x in values:
        assert type(x)._fields == RESULT_FIELDS[type(x)]
        for name in type(x)._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
    assert EigenSpectrum((1j, -1j, 1j, -1j)).multiplicity == 2
    assert SolutionSet(True, e0).hom_basis == () and SolutionSet(True, e0).dim == 0
    assert solve_axb(e0, e0, e1).hom_basis == []  # solve_axb returns a list


def test_equality_and_hash():
    assert e1 + e2 == e2 + e1
    assert hash(e1 + e2) == hash(e2 + e1)
    assert e1 != e2
    assert (e1 == "e1") is False


# -- the generated product kernel --------------------------------------------


def _loop_product(a, b):
    # The plain double loop over the table, kept as the reference the
    # generated kernel must reproduce bit for bit.
    out = [0.0] * 8
    for i in range(8):
        ai = a[i]
        if ai == 0.0:
            continue
        for j in range(8):
            bj = b[j]
            if bj != 0.0:
                out[i ^ j] += MUL_SIGN[i][j] * ai * bj
    return out


def _draw_operand(rng, kind):
    if kind == "desk":
        return Multivector([rng.randint(-5, 5) for _ in range(8)])
    if kind == "scaled":
        scale = 2.0 ** rng.randint(-60, 60)
        return Multivector([rng.uniform(-1.0, 1.0) * scale for _ in range(8)])
    # signed zeros next to values that cancel exactly
    return Multivector([rng.choice((0.0, -0.0, 1.0, -1.0, 0.5, -2.0)) for _ in range(8)])


@pytest.mark.parametrize("kind", ["desk", "scaled", "zeros"])
def test_product_matches_table_loop_bitwise(kind):
    rng = random.Random(kind)
    for _ in range(3000):
        a, b = _draw_operand(rng, kind), _draw_operand(rng, kind)
        got = (a * b).coeffs
        want = _loop_product(a.coeffs, b.coeffs)
        assert [repr(x) for x in got] == [repr(x) for x in want]


def test_product_with_negative_zero_inputs_has_no_negative_zero():
    a = Multivector((-1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    b = Multivector((0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert all(math.copysign(1.0, x) == 1.0 for x in (a * b).coeffs if x == 0.0)
    # e0*e0 and e1*(-e1) cancel to a zero coefficient
    assert all(math.copysign(1.0, x) == 1.0 for x in ((e0 + e1) * (e0 - e1)).coeffs)


def test_product_overflow_raises():
    big = 1e200 * e0
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        (1e200 * e2) * (1e200 * e2)


def test_constructor_normalizes_negative_zero():
    assert all(math.copysign(1.0, x) == 1.0 for x in Multivector((-0.0,) * 8).coeffs)


def test_cim_image_is_the_2x2_image_of_cim_bit_for_bit():
    # _cim_m2 reads U, the image of cim(a), off a's coefficients; it must be
    # _to_m2 of cim(a) entry for entry, signed zeros included, at every scale
    rng = random.Random(29)
    for n in range(2000):
        a = random_singular(rng) if n % 2 else Multivector([rng.randint(-5, 5) for _ in range(8)])
        a = _scaled(a, rng.choice((0, 0, rng.randint(-1060, 1020))))
        (m00, m01), (m10, m11) = _to_m2(a.cim().coeffs)
        assert repr(_cim_m2(a.coeffs)) == repr((m00, m01, m10))
        assert m11 == -m00
