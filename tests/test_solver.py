import json
import math
import random
import shlex
from pathlib import Path

import numpy as np
import pytest

from cl12 import (
    Multivector,
    e0,
    e1,
    e2,
    e3,
    e4,
    e5,
    e6,
    e7,
    solve_ax,
    solve_axb,
    solve_xb,
    vectorize,
)
from cl12 import MPKind, mp_inverse, oracle
from cl12.cli import main
from cl12.multivector import _to_m2
from support import (
    count_calls,
    random_invertible,
    random_multivector,
    random_nonzero_mixed,
    random_singular,
    ref_reduced,
)


def _oracle_system(a, b, d):
    system = oracle.matmul(oracle.fleft_matrix(a), oracle.fright_matrix(b))
    return oracle.exact_solve(system, oracle.fvec(d))


def test_solve_axb_on_invertible_operands_builds_only_its_solution(monkeypatch):
    # a, b and d go to the 2x2 image and the particular solution comes back
    # once; the homogeneous basis is empty
    rng = random.Random(5)
    cases = [(random_invertible(rng), random_invertible(rng), random_multivector(rng))
             for _ in range(20)]
    made = count_calls(monkeypatch, "_make")
    for a, b, d in cases:
        made.clear()
        sol = solve_axb(a, b, d)
        assert sol.dim == 0 and made == [(sol.particular.coeffs,)]


def test_identity_coefficients():
    d = 2 * e0 - e3 + 5 * e6
    sol = solve_axb(e0, e0, d)
    assert sol.solvable and sol.particular == d and sol.dim == 0
    assert solve_ax(e0, e5).particular == e5
    assert solve_xb(e0, e5).particular == e5


def test_unsolvable_examples():
    for sol, (a, b, d) in (
        (solve_axb(e1 + e2, e0, e0), (e1 + e2, e0, e0)),
        (solve_ax(e1 + e2, e0), (e1 + e2, e0, e0)),
        (solve_xb(e6 + e7, e0), (e0, e6 + e7, e0)),
    ):
        assert not sol.solvable
        assert sol.particular is None
        assert sol.residual > 0.1
        assert not _oracle_system(a, b, d).consistent


def test_unsolvable_residual_is_least_squares():
    a, b, d = e1 + e2, e0, e0
    sol = solve_ax(a, d)
    system = np.array([[float(x) for x in row]
                       for row in oracle.matmul(oracle.fleft_matrix(a), oracle.fright_matrix(b))])
    x_ls, *_ = np.linalg.lstsq(system, vectorize(d), rcond=None)
    best = np.linalg.norm(system @ x_ls - vectorize(d))
    assert sol.residual == pytest.approx(best, rel=1e-9)


#: Homogeneous dimension of a*x*b = 0 for each invertibility mix.
MIX_DIMS = {"inv_inv": 0, "inv_sing": 4, "sing_inv": 4, "sing_sing": 6, "zero": 8}


def _draw_mix(rng, mix):
    if mix == "zero":
        return Multivector.zero(), random_nonzero_mixed(rng)
    draw = {"inv": random_invertible, "sing": random_singular}
    left, right = mix.split("_")
    return draw[left](rng), draw[right](rng)


def _variants(rng, a, b, d):
    """(a, b, d, kernel pair): the draw, then both operands scaled by 2^k
    with k in [-900, 900], then every nonzero operand moved by 2^-40 along
    a blade, each with the pair whose exact kernel the basis must span.

    Scaling changes no kernel, and the scaled operands stay dyadic, so the
    oracle reads them exactly.  A moved singular operand is invertible in
    exact arithmetic but far inside the singular tolerance, so the basis
    must span the kernel of the operands it was moved from.
    """
    yield a, b, d, (a, b)
    scaled = [x * 2.0 ** rng.randint(-900, 900) for x in (a, b)]
    yield *scaled, Multivector.zero(), scaled
    moved = [x if x.is_zero() else x + 2.0 ** -40 * Multivector.basis(rng.randrange(8))
             for x in (a, b)]
    yield *moved, Multivector.zero(), (a, b)


@pytest.mark.parametrize("mix", sorted(MIX_DIMS))
def test_homogeneous_space_is_the_exact_kernel(mix):
    rng = random.Random(mix)
    for _ in range(40):
        for a, b, d, pair in _variants(rng, *_draw_mix(rng, mix), random_multivector(rng)):
            sol = solve_axb(a, b, d)
            exact = _oracle_system(*pair, Multivector.zero()).nullspace
            assert sol.dim == MIX_DIMS[mix] == len(exact) == len(sol.hom_basis)
            if sol.dim == 0:
                assert sol.hom_basis == []
                continue
            assert not any(math.copysign(1.0, x) < 0.0
                           for h in sol.hom_basis for x in h.coeffs if x == 0.0)
            basis = np.array([vectorize(h) for h in sol.hom_basis])
            assert np.allclose(basis @ basis.T, np.eye(sol.dim), rtol=0.0, atol=1e-12)
            # the basis spans the exact kernel, not just a space of its size
            kernel = np.array([[float(x) for x in v] for v in exact])
            kernel /= np.linalg.norm(kernel, axis=1, keepdims=True)
            assert np.linalg.matrix_rank(np.vstack([basis, kernel]), tol=1e-9) == sol.dim


def test_zero_equation():
    sol = solve_axb(Multivector.zero(), e0, e4)
    assert not sol.solvable and sol.dim == 8
    sol0 = solve_axb(Multivector.zero(), e0, Multivector.zero())
    assert sol0.solvable and sol0.particular == Multivector.zero() and sol0.dim == 8


# -- bit identity with the generic formulas -----------------------------------


def _ref_from_m2(m):
    # the preimage of a 2x2 image through the generic constructor
    (m00, m01), (m10, m11) = m
    return Multivector((
        (m00.real + m11.real) / 2, (m00.real - m11.real) / 2,
        (m01.imag + m10.imag) / 2, (m01.imag - m10.imag) / 2,
        (m01.real - m10.real) / 2, (m01.real + m10.real) / 2,
        (m11.imag - m00.imag) / 2, -(m00.imag + m11.imag) / 2,
    ))


def _ref_pairs(kind, z, y):
    # (eigenvalue, vector): from the rows z, y of A the eigenbasis of A+ A,
    # from the columns of B the conjugated eigenbasis of B B+
    if kind is not MPKind.SINGULAR_NONZERO:
        lam = int(kind is MPKind.INVERTIBLE)
        return [(lam, (1 + 0j, 0j)), (lam, (0j, 1 + 0j))]
    rz, ry = math.hypot(abs(z[0]), abs(z[1])), math.hypot(abs(y[0]), abs(y[1]))
    (z0, z1), r = (z, rz) if rz >= ry else (y, ry)
    return [(1, (z0.conjugate() / r, z1.conjugate() / r)), (0, (-z1 / r, z0 / r))]


def _ref_hom_basis(a, b):
    # sqrt(2) v u^H and its product with 1j, both through _ref_from_m2
    (a, _, _), (b, _, _) = ref_reduced(a), ref_reduced(b)
    ma, mb = _to_m2(a.coeffs), _to_m2(b.coeffs)
    hom = []
    for lam, (v0, v1) in _ref_pairs(mp_inverse(a).kind, *ma):
        for mu, (u0, u1) in _ref_pairs(mp_inverse(b).kind, *zip(*mb)):
            if lam and mu:
                continue
            w0, w1 = math.sqrt(2.0) * u0, math.sqrt(2.0) * u1
            m = ((v0 * w0, v0 * w1), (v1 * w0, v1 * w1))
            hom += [_ref_from_m2(m), _ref_from_m2(tuple((1j * z, 1j * w) for z, w in m))]
    return hom


def _ref_parts(a):
    # conjugate, prime, cre, cim and split_h through the generic constructor
    c = a.coeffs
    return [Multivector((c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], c[7])),
            Multivector((c[0], c[1], -c[2], c[3], -c[4], c[5], -c[6], -c[7])),
            Multivector((c[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, c[7])),
            Multivector((0.0, *c[1:7], 0.0)),
            Multivector((*c[:4], 0.0, 0.0, 0.0, 0.0)),
            Multivector((*c[4:], 0.0, 0.0, 0.0, 0.0))]


def _draw_operand(rng):
    kind = rng.choice(("sparse", "singular", "zero", "invertible"))
    if kind == "zero":
        return Multivector.zero()
    if kind == "sparse":
        a = Multivector([rng.randint(-5, 5) if rng.random() < 0.3 else 0 for _ in range(8)])
    else:
        a = {"singular": random_singular, "invertible": random_invertible}[kind](rng)
    return a * 2.0 ** rng.choice((0, 0, -1000, 1000))


def test_composites_bit_identical_to_reference():
    # repr tells every float apart, -0.0 from 0.0 included
    rng = random.Random(18)
    for _ in range(400):
        a, b = _draw_operand(rng), _draw_operand(rng)
        assert repr(solve_axb(a, b, a).hom_basis) == repr(_ref_hom_basis(a, b))
        parts = [a.conjugate(), a.prime(), a.cre(), a.cim(), *a.split_h()]
        assert repr(parts) == repr(_ref_parts(a))


def test_readme_solve_examples_have_zero_residual(capsys):
    # every operand's pinv is dyadic here, so every product is exact
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line.split("#")[0])[1:] for line in readme.splitlines()
                if line.startswith("cl12 solve ")]
    assert len(commands) == 2
    for argv in commands:
        assert main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] == 0.0
