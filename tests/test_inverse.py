import random

import pytest

from cl12 import (
    MPKind,
    MPResult,
    Multivector,
    SingularElement,
    e0,
    e1,
    e2,
    e4,
    inverse,
    mp_inverse,
)
from support import random_invertible, random_nonzero_mixed


def test_inverse_examples():
    assert inverse(e0) == e0
    assert inverse(e4) == -e4
    assert e4 * inverse(e4) == e0


def test_inverse_rejects_singular():
    with pytest.raises(SingularElement):
        inverse(e1 + e2)
    with pytest.raises(SingularElement):
        inverse(Multivector.zero())


def test_inverse_two_sided():
    rng = random.Random(7)
    for _ in range(100):
        a = random_invertible(rng)
        x = inverse(a)
        assert (a * x).isclose(e0, 1e-9)
        assert (x * a).isclose(e0, 1e-9)


def test_mp_inverse_cases():
    z = mp_inverse(Multivector.zero())
    assert z.pinv == Multivector.zero() and z.kind is MPKind.ZERO and z.condition == 0.0

    s = mp_inverse(e1 + e2)
    assert s.pinv == (e1 - e2) / 4
    assert s.kind is MPKind.SINGULAR_NONZERO
    assert s.condition == 0.0

    t = mp_inverse(e0 + e1)
    assert t.pinv == (e0 + e1) / 4
    assert t.kind is MPKind.SINGULAR_NONZERO

    inv = mp_inverse(e0 + e2 + e4)
    assert inv.kind is MPKind.INVERTIBLE
    assert inv.condition == pytest.approx(1.0)  # P = 9, norm^4 = 9


def _mp_inverse_reference(a, tol=1e-9):
    # mp_inverse as it read before it shared one functionals() call:
    # is_singular and inverse each recompute P and the square sum.
    if a.is_zero():
        return MPResult(pinv=Multivector.zero(), kind=MPKind.ZERO, condition=0.0)
    f = a.functionals()
    s = sum(x * x for x in a.coeffs)
    condition = f.P / (s * s)
    if not a.is_singular(tol):
        g = a.functionals()
        central = Multivector((g.N / g.P, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * g.T / g.P))
        return MPResult(pinv=central * a.conjugate(), kind=MPKind.INVERTIBLE, condition=condition)
    return MPResult(pinv=a.prime() / (4.0 * f.K), kind=MPKind.SINGULAR_NONZERO, condition=condition)


def test_mp_inverse_bit_identical_to_reference():
    rng = random.Random(149)
    cases = [Multivector.zero(), e0 + e2 + e4, e1 + e2]
    for _ in range(400):
        a = random_nonzero_mixed(rng)
        cases += [a, a * 2.0 ** rng.randint(-40, 40), a + Multivector.scalar(1e-7)]
    for a in cases:
        for tol in (1e-9, 0.0, 1e-3):
            got, want = mp_inverse(a, tol), _mp_inverse_reference(a, tol)
            assert got.kind is want.kind
            assert repr(got.pinv.coeffs) == repr(want.pinv.coeffs)
            assert repr(got.condition) == repr(want.condition)
    with pytest.raises(ValueError):
        mp_inverse(e0, -1.0)
    with pytest.raises(ValueError):
        inverse(e0, -1.0)


def test_mp_inverse_evaluates_functionals_once(monkeypatch):
    calls = []
    functionals = Multivector.functionals

    def counted(self):
        calls.append(self)
        return functionals(self)

    monkeypatch.setattr(Multivector, "functionals", counted)
    for a in (e0 + e2 + e4, e1 + e2, 3.0 * e4):
        calls.clear()
        mp_inverse(a)
        assert len(calls) == 1
    calls.clear()
    inverse(e0 + e2 + e4)
    assert len(calls) == 1
