import cmath
import math
import operator
import random

import numpy as np
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
    eigenvalues,
    inverse,
    mp_inverse,
)
from cl12.multivector import _ldexp, _scaled, _within
from support import (count_calls, random_invertible, random_nonzero_mixed, random_singular,
                     ref_reduced, square_sum)


def test_inverse_examples():
    assert inverse(e0) == e0
    assert inverse(e4) == -e4
    assert e4 * inverse(e4) == e0


def test_inverse_rejects_singular():
    with pytest.raises(SingularElement):
        inverse(e1 + e2)
    with pytest.raises(SingularElement):
        inverse(Multivector.zero())
    # decided before scaling back: the generalized inverse would overflow
    with pytest.raises(SingularElement):
        inverse(2.0 ** -1074 * (e1 + e2))


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


def _functionals_reference(a):
    # N, T, P, T1, T3, T5, K written out on indexed coefficients: the
    # operations, in their order, that the tuple kernels must round like,
    # on the reduced element and scaled back (P has degree 4, the rest 2)
    r, e, _ = ref_reduced(a)
    c = r.coeffs
    n = (
        c[0] * c[0] - c[1] * c[1] + c[2] * c[2] - c[3] * c[3]
        + c[4] * c[4] - c[5] * c[5] + c[6] * c[6] - c[7] * c[7]
    )
    t = c[0] * c[7] + c[2] * c[5] - c[1] * c[6] - c[3] * c[4]
    p = n * n + 4.0 * t * t
    t1 = c[0] * c[1] - c[2] * c[3] - c[4] * c[5] + c[6] * c[7]
    t3 = c[0] * c[3] + c[1] * c[2] + c[4] * c[7] + c[5] * c[6]
    t5 = c[0] * c[5] + c[1] * c[4] - c[2] * c[7] - c[3] * c[6]
    k = c[0] * c[0] + c[2] * c[2] + c[4] * c[4] + c[6] * c[6]
    return tuple(_ldexp(x, 4 * e if i == 2 else 2 * e) for i, x in enumerate((n, t, p, t1, t3, t5, k)))


def _central_inverse(a, n, t, p):
    # ((N - 2T e7) / P) * a.conjugate() through Multivector objects
    central = Multivector((n / p, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * t / p))
    return central * a.conjugate()


def _mp_inverse_reference(a, tol=1e-9):
    # mp_inverse through Multivector objects: the kind, the pinv and the
    # condition taken on the reduced element, the pinv scaled back
    r, e, s = ref_reduced(a)
    if r.is_zero():
        return MPResult(pinv=Multivector.zero(), kind=MPKind.ZERO, condition=0.0)
    n, t, p, _, _, _, k = _functionals_reference(r)
    condition = p / (s * s)
    if not _within(p, tol, s * s):
        return MPResult(pinv=_scaled_reference(_central_inverse(r, n, t, p), -e),
                        kind=MPKind.INVERTIBLE, condition=condition)
    return MPResult(pinv=_scaled_reference(r.prime() / (4.0 * k), -e),
                    kind=MPKind.SINGULAR_NONZERO, condition=condition)


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


def _is_singular_reference(a, tol):
    r, _, s = ref_reduced(a)
    return _within(_functionals_reference(r)[2], tol, s * s)


def _inverse_reference(a, tol):
    r, e, s = ref_reduced(a)
    n, t, p = _functionals_reference(r)[:3]
    if _within(p, tol, s * s):
        raise SingularElement("singular")
    return _scaled_reference(_central_inverse(r, n, t, p), -e)


def _eigenvalues_reference(a):
    r, e, _ = ref_reduced(a)
    c = r.coeffs
    n, t = _functionals_reference(r)[:2]
    alpha = complex(c[0], c[7])
    root = cmath.sqrt(alpha * alpha - complex(n, 2.0 * t))
    lams = [alpha + root, alpha - root]
    lams += [lam.conjugate() for lam in lams]
    lams.sort(key=lambda z: (z.real, z.imag))
    if e:
        lams = [complex(_ldexp(z.real, e), _ldexp(z.imag, e)) for z in lams]
    return tuple(lams)


def _outcome(f, *args):
    """repr of the result (exact for floats, -0.0 included), or the error type."""
    try:
        x = f(*args)
    except (ValueError, SingularElement) as exc:
        return type(exc)
    return repr(x.coeffs if isinstance(x, Multivector) else x)


def _draw(rng):
    # sparse (each coefficient zero with probability 1/2), singular or
    # uniform, then half the draws scaled by 2^k, k in [-1000, 1000]
    kind = rng.randrange(3)
    if kind == 0:
        c = [0.0 if rng.randrange(2) else rng.uniform(-5.0, 5.0) for _ in range(8)]
    elif kind == 1:
        c = random_singular(rng).coeffs
    else:
        c = [rng.uniform(-1.0, 1.0) for _ in range(8)]
    k = rng.randint(-1000, 1000) if rng.randrange(2) else 0
    return Multivector([math.ldexp(x, k) for x in c])


def _scaled_reference(a, e):
    try:
        return Multivector(math.ldexp(x, e) for x in a.coeffs)
    except OverflowError:
        raise ValueError from None


# ints, a numpy scalar, and scalars that underflow a product to -0.0 or
# overflow it
_SCALARS = (3, -2, 0.1, -7.5, np.float64(-1.25), -(2.0 ** -1074), 2.0 ** 1000, -(2.0 ** -600))


def test_closed_forms_bit_identical_to_reference():
    # every straight-line kernel against its Multivector-level formula
    rng = random.Random(150)
    big = Multivector.scalar(1.5e308)
    pairs = [(big, big), (big, -big), (-big, big), (Multivector.zero(), Multivector.zero())]
    pairs += [(_draw(rng), _draw(rng)) for _ in range(1500)]
    for a, b in pairs:
        assert repr(tuple(a.functionals())) == repr(_functionals_reference(a))
        for tol in (1e-9, 0.0, 1e-3):
            assert a.is_singular(tol) is _is_singular_reference(a, tol)
            assert _outcome(inverse, a, tol) == _outcome(_inverse_reference, a, tol)
        assert _outcome(lambda x: eigenvalues(x).values, a) == _outcome(_eigenvalues_reference, a)
        for op, ref in (
            (operator.add, lambda x, y: Multivector(u + v for u, v in zip(x.coeffs, y.coeffs))),
            (operator.sub, lambda x, y: Multivector(u - v for u, v in zip(x.coeffs, y.coeffs))),
            (lambda x, _: -x, lambda x, _: Multivector(-u for u in x.coeffs)),
        ):
            assert _outcome(op, a, b) == _outcome(ref, a, b)
        for op, ref in (
            (operator.mul, lambda x, s: Multivector(u * float(s) for u in x.coeffs)),
            (lambda x, s: s * x, lambda x, s: Multivector(float(s) * u for u in x.coeffs)),
            (operator.truediv, lambda x, s: Multivector(u / float(s) for u in x.coeffs)),
        ):
            for s in _SCALARS:
                assert _outcome(op, a, s) == _outcome(ref, a, s)
        e = rng.randint(-1100, 1100)
        assert _outcome(_scaled, a, e) == _outcome(_scaled_reference, a, e)


def _edge_draw(rng):
    # a square sum within a few ulps of 2^400 or 2^-400, the edges of the
    # window outside which the closed forms reduce: one coefficient of
    # about 2^+-200, the others zero, 2^-27 or so of it (which moves the
    # square sum by an ulp or two) or far below it, down to where reducing
    # the element makes them or their products subnormal
    c = [rng.choice((1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52))]
    for _ in range(7):
        kind = rng.randrange(3)
        exponent = rng.randint(-30, -25) if kind == 1 else rng.randint(-1074, -100)
        c.append(0.0 if kind == 0 else rng.uniform(-1.0, 1.0) * 2.0 ** exponent)
    rng.shuffle(c)
    k = rng.choice((200, -200))
    return Multivector([math.ldexp(x, k) for x in c])


# Square sums just outside the window.  Telling the window by 2K - N, which
# is the square sum rounded another way, kept these two unreduced, and T1
# came out 0.0 for the first and -6.497e-321 for the second.
_EDGE_CASES = (
    (1.1934569360485287e-68, 0.0, 3.684476528577279e-269, 6.22301527786114e-61,
     7.153648479063456e-230, 0.0, -5.53112234e-315, 7.166516835557385e-287),
    (0.0, 1.9746841000052143e+52, 0.0, 0.0, 1.3195722552441616e-104, 4.924886239268771e-217,
     1.6069380442589903e+60, 0.0),
)


def test_closed_forms_at_the_window_edges():
    # every closed form decides the window by the square sum, as the
    # references do, on both sides of both edges
    rng = random.Random(151)
    cases = [Multivector(c) for c in _EDGE_CASES] + [_edge_draw(rng) for _ in range(300)]
    inside = set()
    for a in cases:
        inside.add(2.0 ** -400 <= square_sum(a.coeffs) <= 2.0 ** 400)
        assert repr(tuple(a.functionals())) == repr(_functionals_reference(a))
        for tol in (1e-9, 0.0, 1e-3):
            assert a.is_singular(tol) is _is_singular_reference(a, tol)
            assert _outcome(inverse, a, tol) == _outcome(_inverse_reference, a, tol)
            assert (_outcome(lambda x: tuple(mp_inverse(x, tol)), a)
                    == _outcome(lambda x: tuple(_mp_inverse_reference(x, tol)), a))
        assert _outcome(lambda x: eigenvalues(x).values, a) == _outcome(_eigenvalues_reference, a)
    assert inside == {True, False}
    assert repr(Multivector(_EDGE_CASES[0]).functionals().T1) == "-0.0"
    assert repr(Multivector(_EDGE_CASES[1]).functionals().T1) == "0.0"


def test_mp_inverse_evaluates_functionals_once(monkeypatch):
    # each closed form makes one pass over the coefficients, in _reduce,
    # which takes the square sum, before it takes N, T and P on the result
    calls = count_calls(monkeypatch, "_reduce")
    for f, a in ((mp_inverse, e0 + e2 + e4), (mp_inverse, e1 + e2), (mp_inverse, 3.0 * e4),
                 (mp_inverse, Multivector.zero()), (inverse, e0 + e2 + e4),
                 (Multivector.is_singular, e1 + e2), (eigenvalues, e0 + e2 + e4),
                 (Multivector.functionals, e1 + e2)):
        calls.clear()
        f(a)
        assert calls == [(a.coeffs,)]
    # outside the window, one more pass over the reduced coefficients
    big = 2.0 ** 600 * (e0 + e2 + e4)
    calls.clear()
    mp_inverse(big)
    assert calls == [(big.coeffs,), ((0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0),)]


def test_closed_forms_outside_the_window_build_only_their_result(monkeypatch):
    # reducing an element takes its coefficients, not a new element
    big = 2.0 ** 600 * (e0 + e2 + e4)
    makes = count_calls(monkeypatch, "_make")
    for f in (Multivector.is_singular, eigenvalues, Multivector.functionals):
        makes.clear()
        f(big)
        assert makes == []
    for f in (inverse, lambda a: mp_inverse(a).pinv):
        makes.clear()
        x = f(big)
        assert makes == [(x.coeffs,)]
        assert x == inverse(e0 + e2 + e4) / 2.0 ** 600
