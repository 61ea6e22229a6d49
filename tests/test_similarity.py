import itertools
import math
import random

import pytest

from cl12 import (
    BASIS,
    Multivector,
    SimilarityReason,
    SimilarityResult,
    SingularElement,
    conjugate_by,
    conjugation_matrix,
    e0,
    e1,
    e2,
    e3,
    e4,
    e5,
    e6,
    e7,
    is_similar,
    left_matrix,
    right_matrix,
    inverse,
    solve_axb,
)
from cl12 import oracle
from cl12.multivector import _S_HIGH, _S_LOW, _from_m2, _is_singular, _ntp, _scaled, _to_m2
from cl12.similarity import _ROOT2, _cyclic
from support import (count_calls, random_invertible, random_multivector, random_singular,
                     ref_reduced)


def test_conjugate_by_examples():
    q = 2 * e0 + e1 + e3  # P = 16, invertible
    assert conjugate_by(q, e0) == e0
    s_t = 3 * e0 - 2 * e7
    assert conjugate_by(q, s_t).isclose(s_t, 1e-12)
    assert conjugate_by(e2 + e6, e2) == e6


def test_conjugate_by_rejects_singular():
    with pytest.raises(SingularElement):
        conjugate_by(e1 + e2, e3)


def test_conjugation_fixes_central_and_quadratic_forms():
    # cre, N and T are fixed exactly (the proof is in cl12.verify's
    # docstring); conjugation also maps cim to cim
    rng = random.Random(41)
    for _ in range(100):
        q = random_invertible(rng)
        x = random_multivector(rng)
        assert conjugate_by(q, x).cim().isclose(conjugate_by(q, x.cim()), 1e-9)


def test_conjugation_ignores_scaling():
    # q x q^-1 does not change when q is scaled, by a negative factor too
    rng = random.Random(43)
    for _ in range(50):
        q = random_invertible(rng)
        x = random_multivector(rng)
        assert conjugate_by(q, x).isclose(conjugate_by(-3 * q, x), 1e-9)


def test_conjugation_matrix_identity():
    cm = conjugation_matrix(e0)
    assert list(map(list, cm.full)) == oracle.identity(8)
    assert list(map(list, cm.block)) == oracle.identity(6)


def test_conjugation_matrix_structure():
    q = e0 + e2 + e4
    cm = conjugation_matrix(q)
    product = oracle.matmul(left_matrix(q), right_matrix(inverse(q)))
    assert all(math.isclose(x, y, rel_tol=1e-5, abs_tol=1e-8)
               for row, want in zip(cm.full, product) for x, y in zip(row, want))
    # rows and columns 0 and 7 are those of the identity
    assert all(abs(x - (i == j)) <= 1e-9 for i, row in enumerate(cm.full)
               for j, x in enumerate(row) if i in (0, 7) or j in (0, 7))
    assert abs(oracle.exact_det(cm.block)) > 1e-6


def test_is_similar_reflexive():
    rng = random.Random(53)
    for _ in range(20):
        a = random_multivector(rng)
        r = is_similar(a, a)
        assert r.similar and r.witness == e0


def test_central_pairs():
    r = is_similar(e7, -e7)
    assert not r.similar and r.reason is SimilarityReason.CRE_MISMATCH
    r = is_similar(3 * e0 - 2 * e7, 3 * e0 - 2 * e7)
    assert r.similar and r.reason is SimilarityReason.CENTRAL_EQUAL and r.witness == e0


def test_mixed_centrality_is_never_similar():
    # all three invariants of 0 and e1+e2 coincide, yet they are not similar
    r = is_similar(Multivector.zero(), e1 + e2)
    assert not r.similar and r.reason is SimilarityReason.CENTRAL_UNEQUAL
    r = is_similar(e1 + e2, Multivector.zero())
    assert not r.similar and r.reason is SimilarityReason.CENTRAL_UNEQUAL


def test_basis_pair_witness():
    r = is_similar(e2, e6)
    assert r.similar and r.reason is SimilarityReason.INVARIANTS_MATCH
    assert r.witness == -e3 - e7
    assert (-e3 - e7) * e2 == e6 * (-e3 - e7) == e1 - e5
    assert not r.witness.is_singular()


def test_is_similar_builds_only_its_witness(monkeypatch):
    # the pair is decided and the witness built on coefficient tuples and
    # 2x2 images: a similar non-central pair builds one element, the
    # witness, and a dissimilar pair none
    pairs = [(e2, e6), (2 * e0 + e1 + e4, 2 * e0 + e1 - e4), (e1, e1 + e0), (e1, 2 * e1),
             (e1 + e6, e1 - e6)]
    made = count_calls(monkeypatch, "_make")
    for a, b in pairs:
        made.clear()
        r = is_similar(a, b)
        assert made == ([(r.witness.coeffs,)] if r.similar else [])
    assert [is_similar(a, b).similar for a, b in pairs] == [True, True, False, False, False]


def test_mismatch_reasons():
    assert is_similar(e1, e1 + e0).reason is SimilarityReason.CRE_MISMATCH
    assert is_similar(e1, 2 * e1).reason is SimilarityReason.N_MISMATCH
    # e1 + e6 and e1 - e6 share the central part and N, differ exactly in T
    a, b = e1 + e6, e1 - e6
    assert a.functionals().N == b.functionals().N == 0.0
    assert a.functionals().T != b.functionals().T
    assert is_similar(a, b).reason is SimilarityReason.T_MISMATCH


def test_tiny_pair_is_similar():
    # the singularity rule is relative, so a pair's scale cannot hide its witness
    for tol in (1e-9, 0.0):
        r = is_similar(1e-6 * e2, 1e-6 * e6, tol)
        assert r.similar and r.reason is SimilarityReason.INVARIANTS_MATCH
        assert r.witness == 1e-6 * (-e3 - e7)


def test_nilpotent_pair_of_unequal_norms_raises_singular_element():
    # u and t*u are similar, but every witness has cond2 >= 1/t, so for
    # 1/t > 2/sqrt(tol) = 6.3e4 is_singular rejects all of them
    u = e1 + e2
    assert is_similar(u, 3e-5 * u).similar
    for t in (1e-5, 1e-6, 2.0 ** -40):
        with pytest.raises(SingularElement, match="tol = 1e-09"):
            is_similar(u, t * u)
        with pytest.raises(SingularElement):
            is_similar(t * u, u)
    assert is_similar(u, 1e-6 * u, tol=1e-13).similar


def test_witness_meets_its_equation_when_a_candidate_cancels():
    # the invariants agree to tol, and cim(b) + cim(a), which solves q a = b q
    # when they agree exactly, cancels to 1e-10 e1 + 2e-10 e2: invertible,
    # yet |qa - bq| = 0.4 |q| scale; the cyclic-vector witness meets it
    a, b = 2 * e0 + e1, 2 * e0 - 0.9999999999 * e1 + 2e-10 * e2
    q0 = b.cim() + a.cim()
    assert not q0.is_singular()
    assert (q0 * a - b * q0).norm() > 0.1 * q0.norm() * a.norm()
    r = is_similar(a, b)
    assert r.similar and r.reason is SimilarityReason.INVARIANTS_MATCH
    q = r.witness
    assert not q.is_singular()
    assert (q * a - b * q).norm() <= 8 * 1e-9 * q.norm() * max(a.norm(), b.norm())


def _nilpotent_imaginary_parts(r):
    # every nonzero e1..e6 part with entries in [-r, r] that squares to 0
    parts = []
    for c in itertools.product(range(-r, r + 1), repeat=6):
        u = Multivector((0, *c, 0))
        if any(c) and (u * u).is_zero():  # exact on these integers
            parts.append(oracle.fvec(u))
    return parts


def _integer_unit(rng, nilpotents):
    # (q, q^-1) with integer entries: basis elements, whose inverse is
    # +-themselves, and 1 + n with n^2 = 0, whose inverse is 1 - n
    q = qinv = oracle.fvec(e0)
    for _ in range(rng.randint(1, 2)):
        if rng.randrange(3):
            n = rng.choice(nilpotents)
            f, finv = oracle.fadd(e0, n), tuple(x - y for x, y in zip(oracle.fvec(e0), n))
        else:
            f = oracle.fvec(rng.choice(BASIS))
            finv = oracle.finverse(f)
        q, qinv = oracle.fmul(q, f), oracle.fmul(finv, qinv)
    return q, qinv


def test_cyclic_vector_witness_is_exact():
    # exactly conjugated non-central pairs (a, q a q^-1), a quarter of them
    # with a nilpotent imaginary part, where one eigenline is all there is:
    # the witness is never singular and meets its bound, and on integer
    # pairs, where every step of its construction is exact, it solves
    # q a = b q exactly with P(q) != 0
    rng = random.Random(73)
    nilpotents = _nilpotent_imaginary_parts(2)
    unipotents = _nilpotent_imaginary_parts(1)
    pairs = nilpotent = exact = 0
    while pairs < 1200:
        if pairs % 4 == 0:
            ca = rng.choice(nilpotents)
        else:
            ca = (0, *(rng.randint(-2, 2) for _ in range(6)), 0)
            if not any(ca):
                continue
        a = (rng.randint(-3, 3), *ca[1:7], rng.randint(-3, 3))
        if pairs % 8 == 7:  # a rational conjugator
            q = oracle.fvec(random_invertible(rng))
            qinv = oracle.finverse(q)
        else:
            q, qinv = _integer_unit(rng, unipotents)
        assert oracle.fmul(q, qinv) == oracle.fvec(e0)
        b = oracle.fmul(oracle.fmul(q, a), qinv)
        pairs += 1
        nilpotent += not any(oracle.fmul(ca, ca))

        fa, fb = Multivector(a), Multivector(b)
        r = is_similar(fa, fb)
        assert r.similar and r.reason is SimilarityReason.INVARIANTS_MATCH
        if (0, *b[1:7], 0) == ca:
            assert r.witness == e0
            continue
        w = r.witness
        assert not w.is_singular()
        assert (w * fa - fb * w).norm() <= 8e-9 * w.norm() * max(fa.norm(), fb.norm())
        if all(float(x).is_integer() for x in b):
            w = oracle.fvec(w)
            assert oracle.fmul(w, a) == oracle.fmul(b, w)
            assert oracle.ffunctionals(w).P != 0
            exact += 1
    assert nilpotent >= 300 and exact >= 950


def _ref_is_similar(a, b, tol=1e-9):
    # is_similar as it read on slices, splatted cim tuples and one pair call
    a_norm, b_norm = a.norm(), b.norm()
    scale, e = max(a_norm, b_norm), 0
    if not _S_LOW <= scale * scale <= _S_HIGH:
        _, e, _ = ref_reduced(a if a_norm >= b_norm else b)
        if e:
            a, b = _scaled(a, -e), _scaled(b, -e)
            a_norm, b_norm = a.norm(), b.norm()
            scale = max(a_norm, b_norm)
    ca, cb = a.coeffs, b.coeffs
    ia, ib = ca[1:7], cb[1:7]
    a_central = max(map(abs, ia)) <= tol * a_norm
    b_central = max(map(abs, ib)) <= tol * b_norm
    if a_central and b_central:
        if max(abs(x - y) for x, y in zip(ca, cb)) <= tol * scale:
            return SimilarityResult(True, e0, SimilarityReason.CENTRAL_EQUAL)
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    if a_central != b_central:
        return SimilarityResult(False, None, SimilarityReason.CENTRAL_UNEQUAL)
    d0, d7 = ca[0] - cb[0], ca[7] - cb[7]
    if not max(abs(d0), abs(d7)) <= tol * scale:
        return SimilarityResult(False, None, SimilarityReason.CRE_MISMATCH)
    (na, ta, _), (nb, tb, _) = _ntp(ca), _ntp(cb)
    if not abs(na - nb) <= tol * (scale * scale):
        return SimilarityResult(False, None, SimilarityReason.N_MISMATCH)
    if not abs(ta - tb) <= tol * (scale * scale):
        return SimilarityResult(False, None, SimilarityReason.T_MISMATCH)
    if max(abs(x - y) for x, y in zip(ia, ib)) <= tol * scale:
        return SimilarityResult(True, e0, SimilarityReason.INVARIANTS_MATCH)
    (u00, u01), (u10, _) = _to_m2((0.0, *ia, 0.0))
    (v00, v01), (v10, _) = _to_m2((0.0, *ib, 0.0))
    det_gap = v00 * v00 + v01 * v10 - u00 * u00 - u01 * u10
    v0, v1, v_norm, uv0, uv1 = _cyclic(u00, u01, u10)
    w0, w1, w_norm, vw0, vw1 = _cyclic(v00, v01, v10)
    witness = _from_m2(((w0 * uv1 - vw0 * v1, vw0 * v0 - w0 * uv0),
                        (w1 * uv1 - vw1 * v1, vw1 * v0 - w1 * uv0)))
    q_norm = witness.norm()
    residual = math.hypot(d0, d7) * q_norm + abs(det_gap) * (v_norm * w_norm / _ROOT2)
    if residual <= tol * (8.0 * q_norm * scale) and not _is_singular(witness, tol):
        return SimilarityResult(True, _scaled(witness, e), SimilarityReason.INVARIANTS_MATCH)
    raise SingularElement(f"no witness is invertible within tol = {tol:g}"
                          " and meets |qa - bq| <= 8 tol |q| scale")


def _pair_classes(rng, n):
    # pair n of a cycle through conjugated pairs (half of them singular),
    # partners with the central part bumped, near partners, nilpotents at
    # a norm ratio near the 2/sqrt(tol) edge, central pairs, random
    # partners and equal pairs
    a = random_singular(rng) if n % 2 else random_multivector(rng)
    kind = n % 7
    if kind < 3:
        c = list(conjugate_by(random_invertible(rng), a).coeffs)
        if kind == 1:
            c[0] += 1.0
        elif kind == 2:
            c[rng.randrange(8)] += rng.choice((1e-12, 1e-9, 3e-9, 1e-6))
        return a, Multivector(c)
    if kind == 3:
        u = e1 + e2 if n % 3 else a
        return u, rng.choice((1e-5, 1.4e-5, 1.6e-5, 3e-5)) * u
    if kind == 4:
        c0, c7 = rng.randint(-3, 3), rng.randint(-3, 3)
        x = Multivector([c0, 0, 0, 0, 0, 0, 0, c7])
        y = Multivector([c0 + rng.choice((0, 1e-10, 1)), 0, rng.choice((0, 1e-12, 1)), 0, 0, 0, 0, c7])
        return (x, y) if n % 2 else (y, x)
    return a, random_multivector(rng) if kind == 5 else a


def _outcome(f, a, b, tol):
    try:
        return repr(f(a, b, tol))
    except (SingularElement, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_is_similar_bit_identical_to_reference():
    # verdict, reason, witness coefficients, raise and message, at desk
    # scale, inside the window and outside it, at tol 0 to 0.9
    rng = random.Random(97)
    outcomes = set()
    for n in range(350):
        a, b = _pair_classes(rng, n)
        for k in (0, rng.randint(-1040, 1040), rng.randint(-60, 60)):
            try:
                sa, sb = _scaled(a, k), _scaled(b, k)
            except ValueError:
                continue
            for tol in (0.0, 1e-9, 1e-3, 0.5, 0.9):
                got = _outcome(is_similar, sa, sb, tol)
                assert got == _outcome(_ref_is_similar, sa, sb, tol), (a, b, k, tol)
                outcomes.add(got[0] if isinstance(got, tuple) else got.split("reason=")[1])
    assert len(outcomes) == 7  # the six reasons and the raise


def test_only_a_pair_outside_the_window_is_rescaled(monkeypatch):
    # a desk pair is decided as it is; a pair scaled far out is rescaled once
    calls = count_calls(monkeypatch, "_reduced_pair")
    for k, rescaled in ((0, 0), (-30, 0), (900, 1), (-900, 1)):
        calls.clear()
        r = is_similar(_scaled(e2, k), _scaled(e6, k))
        assert r.witness == _scaled(-e3 - e7, k) and len(calls) == rescaled


def test_only_the_forms_that_are_read_are_taken(monkeypatch):
    # N, T and P are taken of a and b in solve_axb, not of d, and only of
    # q, inside inverse(q), in conjugate_by and conjugation_matrix; the
    # reductions of the other operands take no forms, in the window or out
    calls = count_calls(monkeypatch, "_ntp")
    for k in (0, 600, -600):
        a, b, d = _scaled(e0 + e2 + e4, k), _scaled(e1 + e2, k), _scaled(e3 - e5, k)
        for f, args, taken in ((solve_axb, (a, b, d), 2), (conjugate_by, (a, d), 1),
                               (conjugation_matrix, (a,), 1)):
            calls.clear()
            f(*args)
            assert len(calls) == taken, (f.__name__, k)
