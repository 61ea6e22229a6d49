"""End-to-end acceptance checks: the paper's worked examples.

One test per criterion (run pytest with -v to see each by name).  The
identities the paper states for all elements (criteria 5, 7, 8, 9 and 11,
and the rest of 6 and 10) are checked on random inputs by the
``cl12.verify`` suites, which ``tests/test_cli.py::test_verify_json`` runs.
"""

import random
from fractions import Fraction

import numpy as np

from cl12 import (
    Multivector,
    SimilarityReason,
    conjugate_by,
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
)
from cl12 import oracle
from support import random_invertible, random_multivector

TOL = 1e-9


def test_criterion_01_eigenvalue_example():
    a = Multivector((1, -1, 1, 1, 0, 0, 0, -1))
    f = a.functionals()
    assert f.N == -1.0 and f.T == -1.0

    got = eigenvalues(a).values
    want = sorted([2 - 1j, -1j, 2 + 1j, 1j], key=lambda z: (z.real, z.imag))
    assert all(abs(g - w) <= TOL for g, w in zip(got, want))

    pol = oracle.char_poly(oracle.fleft_matrix(a))
    assert pol[0] == 1 and len(pol) == 9
    der = [c * (8 - i) for i, c in enumerate(pol[:-1])]  # descending powers
    der2 = [c * (7 - i) for i, c in enumerate(der[:-1])]
    roots = ((2, -1), (0, -1), (2, 1), (0, 1))
    for re, im in roots:
        # root of multiplicity exactly 2; four distinct double roots fill
        # out the degree, so these are all the roots
        assert oracle.poly_eval_gaussian(pol, re, im) == (0, 0)
        assert oracle.poly_eval_gaussian(der, re, im) == (0, 0)
        assert oracle.poly_eval_gaussian(der2, re, im) != (0, 0)


def test_criterion_02_inverse_example():
    a = e0 + e2 + e4
    third = Fraction(1, 3)
    assert oracle.finverse(a) == (third, 0, -third, 0, -third, 0, 0, 0)
    got = inverse(a)
    want = ((e0 - e2 - e4) / 3).coeffs
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got.coeffs, want))
    assert oracle.exact_det(left_matrix(a)) == 81


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


def test_criterion_04_solver_examples():
    rng = random.Random(4)

    sol = solve_axb(e0 + e1, e6 + e7, e0 + e1 + e6 + e7)
    assert sol.solvable and sol.particular == (e0 + e1 - e6 - e7) / 4
    system = oracle.matmul(oracle.fleft_matrix(e0 + e1), oracle.fright_matrix(e6 + e7))
    assert sol.dim == len(oracle.exact_solve(system, [0] * 8).nullspace)
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


def test_criterion_06_representation_identities():
    assert np.array_equal(left_matrix(e0), np.eye(8))
    assert np.array_equal(right_matrix(e0), np.eye(8))


def test_criterion_10_similarity():
    # conjugated pairs moved off similarity in N alone or in T alone; the
    # verify suite covers the conjugated pairs themselves and a moved
    # central part
    rng = random.Random(10)
    made = 0
    while made < 200:
        a = random_multivector(rng)
        b = conjugate_by(random_invertible(rng), a)
        c = list(b.coeffs)
        if made % 2 == 0:  # move N, keep the central part
            c[1] += rng.choice([1, 2])
            expect, form = SimilarityReason.N_MISMATCH, "N"
        else:  # swap two same-sign coefficients: N fixed, T moves
            c[2], c[4] = c[4], c[2]
            expect, form = SimilarityReason.T_MISMATCH, "T"
        bad = Multivector(c)
        lin = TOL * (1 + max(a.norm(), bad.norm()))
        gap = getattr(bad.functionals(), form) - getattr(a.functionals(), form)
        if (abs(gap) <= TOL * (1 + max(a.norm(), bad.norm()) ** 2)
                or bad.is_central(lin) or a.is_central(lin)):
            continue
        verdict = is_similar(a, bad)
        assert not verdict.similar
        assert verdict.reason is expect
        made += 1
