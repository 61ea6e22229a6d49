import itertools
import math
import random

import pytest

from cl12 import (
    BASIS,
    Multivector,
    SimilarityReason,
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
)
from cl12 import oracle
from support import count_makes, random_invertible, random_multivector


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
    made = count_makes(monkeypatch)
    for a, b in pairs:
        made.clear()
        r = is_similar(a, b)
        assert made == ([r.witness.coeffs] if r.similar else [])
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
