import math
import random

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
from cl12 import oracle
from support import (
    random_invertible,
    random_multivector,
    random_nonzero_mixed,
    random_singular,
)


def _oracle_system(a, b, d):
    system = oracle.matmul(oracle.fleft_matrix(a), oracle.fright_matrix(b))
    return oracle.exact_solve(system, oracle.fvec(d))


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
