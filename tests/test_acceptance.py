"""End-to-end acceptance checks.

One test per criterion, each at its stated trial count and tolerance,
printing a single PASS/FAIL line (run pytest with -s to see them inline).
"""

import functools
import random
from fractions import Fraction

import numpy as np

from cl12 import (
    Multivector,
    SimilarityReason,
    conjugate_by,
    conjugation_matrix,
    determinant,
    e0,
    e1,
    e2,
    e3,
    e4,
    e5,
    e6,
    e7,
    eigenvalues,
    inverse,
    is_similar,
    left_matrix,
    mp_inverse,
    right_matrix,
    solve_ax,
    solve_axb,
    solve_xb,
    witness_candidates,
)
from cl12.matrep import K8, S8
from cl12 import oracle
from cl12.verify import random_invertible, random_multivector

TOL = 1e-9


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"acceptance {number:2d} [{label}]: FAIL")
                raise
            print(f"acceptance {number:2d} [{label}]: PASS")

        return wrapper

    return decorate


@criterion(1, "eigenvalue worked example")
def test_criterion_01_eigenvalue_example():
    a = Multivector((1, -1, 1, 1, 0, 0, 0, -1))
    f = a.functionals()
    assert f.N == -1.0 and f.T == -1.0

    got = eigenvalues(a).values
    want = sorted([2 - 1j, -1j, 2 + 1j, 1j], key=lambda z: (z.real, z.imag))
    assert all(abs(g - w) <= TOL for g, w in zip(got, want))

    pol = oracle.char_poly(oracle.fleft_matrix(a))
    assert pol[0] == 1 and len(pol) == 9
    der = oracle.poly_derivative(pol)
    der2 = oracle.poly_derivative(der)
    roots = ((2, -1), (0, -1), (2, 1), (0, 1))
    for re, im in roots:
        # root of multiplicity exactly 2; four distinct double roots fill
        # out the degree, so these are all the roots
        assert oracle.poly_eval_gaussian(pol, re, im) == (0, 0)
        assert oracle.poly_eval_gaussian(der, re, im) == (0, 0)
        assert oracle.poly_eval_gaussian(der2, re, im) != (0, 0)


@criterion(2, "classical inverse worked example")
def test_criterion_02_inverse_example():
    a = e0 + e2 + e4
    third = Fraction(1, 3)
    assert oracle.finverse(a) == (third, 0, -third, 0, -third, 0, 0, 0)
    got = inverse(a)
    want = ((e0 - e2 - e4) / 3).coeffs
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got.coeffs, want))
    assert abs(determinant(left_matrix(a)) - 81.0) <= TOL * 81.0


@criterion(3, "generalized inverse worked example")
def test_criterion_03_mp_inverse_example():
    assert mp_inverse(e1 + e2).pinv == (e1 - e2) / 4
    a = oracle.fvec(e1 + e2)
    x = oracle.fmp_inverse(a)
    assert x == (0, Fraction(1, 4), Fraction(-1, 4), 0, 0, 0, 0, 0)
    ax, xa = oracle.fmul(a, x), oracle.fmul(x, a)
    assert oracle.fmul(ax, a) == a
    assert oracle.fmul(xa, x) == x
    assert oracle.fprime(ax) == ax
    assert oracle.fprime(xa) == xa


@criterion(4, "linear equation worked examples")
def test_criterion_04_solver_examples():
    rng = random.Random(4)

    sol = solve_axb(e0 + e1, e6 + e7, e0 + e1 + e6 + e7)
    assert sol.solvable and sol.particular == (e0 + e1 - e6 - e7) / 4
    for _ in range(100):
        y = random_multivector(rng)
        x = sol.particular + y - (e0 + e1) * y * (e0 + e1) / 4
        assert ((e0 + e1) * x * (e6 + e7) - (e0 + e1 + e6 + e7)).norm() <= TOL

    sol = solve_ax(e1 + e2, e1 + e2 + e5 + e6)
    assert sol.solvable and sol.particular == (e0 + e3 + e4 + e7) / 2
    for _ in range(100):
        y = random_multivector(rng)
        x = sol.particular + y - (e0 + e3) * y / 2
        assert ((e1 + e2) * x - (e1 + e2 + e5 + e6)).norm() <= TOL

    sol = solve_xb(e6 + e7, e2 - e3 + e4 - e5)
    assert sol.solvable and sol.particular == (-e2 + e3 + e4 - e5) / 2
    for _ in range(100):
        y = random_multivector(rng)
        x = sol.particular + y - y * (e0 + e1) / 2
        assert (x * (e6 + e7) - (e2 - e3 + e4 - e5)).norm() <= TOL


@criterion(5, "functional identities, exact")
def test_criterion_05_functional_identities():
    rng = random.Random(5)
    for _ in range(1000):
        a = oracle.fvec(random_multivector(rng))
        b = oracle.fvec(random_multivector(rng))
        fa, fb = oracle.ffunctionals(a), oracle.ffunctionals(b)
        ab = oracle.fmul(a, b)
        fab = oracle.ffunctionals(ab)
        ca, cb = oracle.fconjugate(a), oracle.fconjugate(b)
        pa, pb = oracle.fprime(a), oracle.fprime(b)

        # (1) N and T under the involutions
        assert oracle.ffunctionals(ca)[:2] == (fa.N, fa.T)
        assert oracle.ffunctionals(pa)[:2] == (fa.N, -fa.T)
        # (2) antihomomorphisms
        assert oracle.fconjugate(ab) == oracle.fmul(cb, ca)
        assert oracle.fprime(ab) == oracle.fmul(pb, pa)
        # (3) a * conj(a) is central
        central = (fa.N, 0, 0, 0, 0, 0, 0, 2 * fa.T)
        assert oracle.fmul(a, ca) == central and oracle.fmul(ca, a) == central
        # (4), (5), (7) product rules
        assert fab.T == fa.N * fb.T + fb.N * fa.T
        assert fab.N == fa.N * fb.N - 4 * fa.T * fb.T
        assert fab.P == fa.P * fb.P
        # (6) quartic form factorization, both association orders
        anti = (fa.N, 0, 0, 0, 0, 0, 0, -2 * fa.T)
        quartic = (fa.P, 0, 0, 0, 0, 0, 0, 0)
        assert oracle.fmul(oracle.fmul(a, ca), anti) == quartic
        assert oracle.fmul(oracle.fmul(a, anti), ca) == quartic
        # (8) central part of ab equals that of ba
        assert oracle.fcre(ab) == oracle.fcre(oracle.fmul(b, a))


@criterion(6, "representation identities")
def test_criterion_06_representation_identities():
    rng = random.Random(6)
    assert np.array_equal(left_matrix(e0), np.eye(8))
    assert np.array_equal(right_matrix(e0), np.eye(8))
    for _ in range(500):
        a, b = random_multivector(rng), random_multivector(rng)
        la, lb = left_matrix(a), left_matrix(b)
        ra, rb = right_matrix(a), right_matrix(b)
        assert np.array_equal(left_matrix(a * b), la @ lb)
        assert np.array_equal(right_matrix(a * b), rb @ ra)
        assert np.array_equal(la @ rb, rb @ la)
        assert np.array_equal(left_matrix(a + b), la + lb)
        assert np.array_equal(left_matrix(7 * a), 7 * la)
        assert (a == b) == np.array_equal(la, lb)
        assert np.array_equal(ra, K8 @ la.T @ K8)
        assert np.array_equal(left_matrix(a.prime()), la.T)
        assert np.array_equal(right_matrix(a.prime()), ra.T)
        assert np.array_equal(left_matrix(a.conjugate()), S8 @ la.T @ S8)
        assert np.array_equal(right_matrix(a.conjugate()), S8 @ ra.T @ S8)
        p2 = a.functionals().P ** 2
        assert abs(determinant(la) - p2) <= TOL * (1.0 + p2)
        assert abs(determinant(ra) - p2) <= TOL * (1.0 + p2)


def _forced_singular(rng):
    seed = (e1 + e2) if rng.randrange(2) else (e0 + e1)
    while True:
        y = random_multivector(rng, -3, 3)
        a = seed * y
        if not a.is_zero():
            return a


@criterion(7, "pseudoinverse transport to the matrix side")
def test_criterion_07_pinv_oracle_equivalence():
    rng = random.Random(7)
    inputs = [random_multivector(rng) for _ in range(100)]
    inputs += [_forced_singular(rng) for _ in range(100)]
    for a in inputs:
        fa = oracle.fvec(a)
        assert oracle.fleft_matrix(oracle.fmp_inverse(fa)) == oracle.exact_pinv(oracle.fleft_matrix(fa))


@criterion(8, "singular structure identities, exact")
def test_criterion_08_singular_structure():
    rng = random.Random(8)
    for _ in range(500):
        a = oracle.fvec(_forced_singular(rng))
        f = oracle.ffunctionals(a)
        total = sum(x * x for x in a)
        assert oracle.fmul(oracle.fprime(a), a) == (total, 2 * f.T1, 0, 2 * f.T3, 0, 2 * f.T5, 0, 0)
        assert f.T1 ** 2 + f.T3 ** 2 + f.T5 ** 2 == f.K ** 2
        assert f.K > 0


@criterion(9, "solver agrees with the exact linear system")
def test_criterion_09_solver_vs_oracle():
    rng = random.Random(9)

    def draw(k):
        if k == 0:
            return random_multivector(rng)
        return _forced_singular(rng)

    for n in range(300):
        a, b = draw(n % 2), draw((n // 2) % 2)
        if rng.randrange(2):
            d = a * random_multivector(rng, -2, 2) * b
        else:
            d = random_multivector(rng)
        sol = solve_axb(a, b, d)
        system = oracle.matmul(oracle.fleft_matrix(a), oracle.fright_matrix(b))
        exact = oracle.exact_solve(system, oracle.fvec(d))
        assert sol.solvable == exact.consistent
        assert sol.dim == len(exact.nullspace)
        if sol.solvable:
            p, q = mp_inverse(a).pinv, mp_inverse(b).pinv
            assert (a * sol.particular * b - d).norm() <= TOL
            for _ in range(3):
                y = random_multivector(rng, -2, 2)
                x = sol.particular + y - (p * a) * y * (b * q)
                assert (a * x * b - d).norm() <= TOL


@criterion(10, "similarity classification and witnesses")
def test_criterion_10_similarity():
    rng = random.Random(10)

    for _ in range(200):
        a = random_multivector(rng)
        q = random_invertible(rng)
        b = conjugate_by(q, a)
        verdict = is_similar(a, b)
        assert verdict.similar
        w = verdict.witness
        assert w is not None and not w.is_singular()
        scale = max(a.norm(), b.norm())
        assert (w * a - b * w).norm() <= TOL * (1.0 + scale * scale)
        if not a.is_central(TOL * (1 + a.norm())) and not b.cim().isclose(a.cim(), TOL):
            # witness must be one of the four basis-element candidates
            near = 1e-12 * (1.0 + w.norm())
            assert any(
                all(abs(x - y) <= near for x, y in zip(w.coeffs, c.coeffs))
                for c in witness_candidates(a, b)
            )

    made = 0
    while made < 200:
        a = random_multivector(rng)
        q = random_invertible(rng)
        b = conjugate_by(q, a)
        kind = made % 3
        if kind == 0:  # move the central part
            bad = Multivector([b.coeffs[0] + rng.choice([1, 2, -1])] + list(b.coeffs[1:]))
            expect = SimilarityReason.CRE_MISMATCH
        elif kind == 1:  # move N, keep the central part
            c = list(b.coeffs)
            c[1] += rng.choice([1, 2])
            bad = Multivector(c)
            lin = TOL * (1 + max(a.norm(), bad.norm()))
            if (abs(bad.functionals().N - a.functionals().N)
                    <= TOL * (1 + max(a.norm(), bad.norm()) ** 2)
                    or bad.is_central(lin) or a.is_central(lin)):
                continue
            expect = SimilarityReason.N_MISMATCH
        else:  # swap two same-sign coefficients: N fixed, T moves
            c = list(b.coeffs)
            c[2], c[4] = c[4], c[2]
            bad = Multivector(c)
            lin = TOL * (1 + max(a.norm(), bad.norm()))
            if (abs(bad.functionals().T - a.functionals().T)
                    <= TOL * (1 + max(a.norm(), bad.norm()) ** 2)
                    or bad.is_central(lin) or a.is_central(lin)):
                continue
            expect = SimilarityReason.T_MISMATCH
        verdict = is_similar(a, bad)
        assert not verdict.similar
        assert verdict.reason is expect
        made += 1


@criterion(11, "conjugation acts block-diagonally")
def test_criterion_11_conjugation_structure():
    rng = random.Random(11)
    ident = np.eye(8)
    edges = ((0, slice(None)), (7, slice(None)), (slice(None), 0), (slice(None), 7))
    for _ in range(100):
        q = random_invertible(rng)
        cm = conjugation_matrix(q)
        for idx in edges:
            assert np.max(np.abs(cm.full[idx] - ident[idx])) <= TOL
        assert abs(np.linalg.det(cm.block)) > 1e-6
