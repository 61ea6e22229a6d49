import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cl12 import Multivector, e0, e1, e2, e4, e6, e7, mp_inverse
from cl12 import oracle
from support import random_multivector, random_nonzero_mixed


def test_exact_pinv_identity_and_zero():
    assert oracle.exact_pinv(oracle.identity(8)) == oracle.identity(8)
    assert oracle.exact_pinv(oracle.zeros(8, 8)) == oracle.zeros(8, 8)


def test_exact_pinv_worked_example():
    got = oracle.exact_pinv(oracle.fleft_matrix(e1 + e2))
    want = oracle.fleft_matrix((0, Fraction(1, 4), Fraction(-1, 4), 0, 0, 0, 0, 0))  # (e1 - e2) / 4
    assert got == want
    # the paper's statement, literally: L(pinv a) = pinv(L(a)) and R(pinv a) = pinv(R(a));
    # verify proves it for every draw from the Penrose rows and the table facts
    for a in (e1 + e2, e0 + e2 + e6, Multivector.zero()):
        x = oracle.fmp_inverse(a)
        for rep in (oracle.fleft_matrix, oracle.fright_matrix):
            assert rep(x) == oracle.exact_pinv(rep(a))


def test_exact_pinv_is_an_involution():
    rng = random.Random(101)
    for _ in range(40):
        a = oracle.fleft_matrix(random_nonzero_mixed(rng))
        assert oracle.exact_pinv(oracle.exact_pinv(a)) == a
        # Penrose's four equations, as integer identities on pinv(A) = X / den
        den, x = oracle.scaled_pinv(a)
        ax, xa = oracle.matmul(a, x), oracle.matmul(x, a)
        assert oracle.matmul(ax, a) == [[den * v for v in row] for row in a]
        assert oracle.matmul(xa, x) == [[den * v for v in row] for row in x]
        assert ax == oracle.transpose(ax) and xa == oracle.transpose(xa)


def test_exact_pinv_rational_input():
    for a in ([[Fraction(1, 2), 0], [0, 0]], [[0.5, 0], [0, 0]]):
        assert oracle.exact_pinv(a) == [[2, 0], [0, 0]]
    assert oracle.matmul([[0.5]], [[2]]) == [[1]]


def _ratio_rows(den, rows):
    return [[Fraction(x, den) for x in row] for row in rows]


def test_scaled_pinv_is_exact_pinv_over_one_positive_denominator():
    rng = random.Random(103)
    cases = [
        oracle.fleft_matrix(e0 + e2 + e6),  # invertible: the one pass over [A | I]
        oracle.fleft_matrix(e1 + e2),  # rank 4: the factorization
        [[0, 1], [1, 0]],  # full rank, det -1: den still > 0
        [[Fraction(1, 2), 0], [0, 0]],  # rational, rank deficient
        [[0.5, 0.25], [-1.5, 3]],  # floats read exactly, full rank
        [[1, 2, 3], [0, 1, 4]],  # 2x3, full row rank
        [[1, 2], [3, 4], [5, 7]],  # 3x2, full column rank
        oracle.zeros(3, 2),
    ] + [oracle.fleft_matrix(random_nonzero_mixed(rng)) for _ in range(20)]
    for m in cases:
        den, x = oracle.scaled_pinv(m)
        assert type(den) is int and den > 0
        assert all(type(v) is int for row in x for v in row)
        assert oracle.exact_pinv(m) == _ratio_rows(den, x)
    assert oracle.exact_pinv([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert oracle.exact_pinv([[0.5, 0.25], [-1.5, 3]]) == [
        [Fraction(8, 5), Fraction(-2, 15)], [Fraction(4, 5), Fraction(4, 15)]]  # det 15/8
    assert oracle.exact_pinv([[1, 2, 3], [0, 1, 4]]) == _ref_pinv([[1, 2, 3], [0, 1, 4]])[0]
    assert oracle.exact_pinv([[1, 2], [3, 4], [5, 7]]) == _ref_pinv([[1, 2], [3, 4], [5, 7]])[0]


def test_scaled_mp_inverse_is_fmp_inverse_over_one_positive_denominator():
    rng = random.Random(107)
    draws = [e0, e1 + e2, e0 + e2 + e4, Multivector.zero()]
    draws += [random_nonzero_mixed(rng) for _ in range(40)]
    for a in draws:
        # Fraction inputs, whole and not, go through the same ratio
        for c in (oracle.fvec(a), tuple(Fraction(int(x), rng.choice((1, 2, 3))) for x in a.coeffs)):
            den, num = oracle.scaled_mp_inverse(c)
            assert type(den) is int and den > 0 and all(type(v) is int for v in num)
            want = tuple(Fraction(v, den) for v in num)
            assert oracle.fmp_inverse(c) == want
            if oracle.ffunctionals(c).P:
                assert oracle.finverse(c) == want
            # fmp_inverse divides this same output, so only the Penrose
            # equations on c itself see a numerator that lost c's lcm
            ax, xa = oracle.fmul(c, want), oracle.fmul(want, c)
            assert oracle.fmul(ax, c) == c and oracle.fmul(xa, want) == want
            assert oracle.fprime(ax) == ax and oracle.fprime(xa) == xa
    assert oracle.scaled_mp_inverse(e1 + e2) == (4, (0, 1, -1, 0, 0, 0, 0, 0))
    assert oracle.scaled_mp_inverse(Multivector.zero()) == (1, (0,) * 8)


def test_kernels_leave_their_input_unchanged():
    # all-int rows enter the kernels as they are, so a kernel that
    # eliminated in place would write through to the caller's matrix
    for a in (oracle.fleft_matrix(e1 + e2), oracle.fleft_matrix(e0 + e2 + e6),
              [[0, 1, 2], [3, 4, 5], [6, 7, 9]]):
        before = [row[:] for row in a]
        oracle.rank(a)
        oracle.exact_det(a)
        oracle.exact_pinv(a)
        oracle.char_poly(a)
        oracle.exact_solve(a, [1] * len(a))
        assert a == before


def test_exact_solve_identity_and_contradiction():
    b = [3, -1, 4, 1, -5, 9, 2, 6]
    sol = oracle.exact_solve(oracle.identity(8), b)
    assert sol.consistent and sol.particular == b and sol.nullspace == []

    a = oracle.zeros(2, 2)
    sol = oracle.exact_solve(a, [1, 0])
    assert not sol.consistent and sol.particular is None
    assert len(sol.nullspace) == 2


def test_exact_solve_worked_system():
    a, b = e0 + e1, e6 + e7
    d = e0 + e1 + e6 + e7
    system = oracle.matmul(oracle.fleft_matrix(a), oracle.fright_matrix(b))
    sol = oracle.exact_solve(system, oracle.fvec(d))
    assert sol.consistent
    assert len(sol.nullspace) == 8 - oracle.rank(system)
    assert oracle.mat_vec(system, sol.particular) == list(oracle.fvec(d))
    for v in sol.nullspace:
        assert oracle.mat_vec(system, v) == [0] * 8


def test_rank():
    assert oracle.rank(oracle.identity(8)) == 8
    assert oracle.rank(oracle.fleft_matrix(e1 + e2)) == 4
    assert oracle.rank(oracle.zeros(3, 5)) == 0


def test_exact_det():
    assert oracle.exact_det(oracle.identity(8)) == 1
    assert oracle.exact_det([]) == 1 == oracle.char_poly([])[-1]
    assert oracle.exact_det([[0, 1], [1, 0]]) == -1
    assert oracle.exact_det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert oracle.exact_det(oracle.fleft_matrix(e1 + e2)) == 0
    with pytest.raises(ValueError, match="square"):
        oracle.exact_det([[1, 0, 0], [0, 1, 0]])
    rng = random.Random(109)
    for _ in range(30):
        a = oracle.fleft_matrix(random_multivector(rng))
        p = oracle.ffunctionals(oracle.fvec([a[i][0] for i in range(8)])).P
        assert oracle.exact_det(a) == p * p


def test_char_poly_identity():
    # (lambda - 1)^8
    binomial = [1, -8, 28, -56, 70, -56, 28, -8, 1]
    assert oracle.char_poly(oracle.identity(8)) == binomial


def test_char_poly_worked_example():
    a = Multivector((1, -1, 1, 1, 0, 0, 0, -1))
    quartic = [1, -4, 6, -4, 5]  # roots 2-i, -i, 2+i, i
    assert oracle.char_poly(oracle.fleft_matrix(a)) == oracle.poly_mul(quartic, quartic)


def test_char_poly_of_e7():
    quad = [1, 0, 1]
    want = oracle.poly_mul(oracle.poly_mul(quad, quad), oracle.poly_mul(quad, quad))
    assert oracle.char_poly(oracle.fleft_matrix(e7)) == want


def test_fmul_agrees_with_library_product():
    rng = random.Random(127)
    for _ in range(150):
        a, b = random_multivector(rng), random_multivector(rng)
        assert oracle.fmul(a, b) == oracle.fvec(a * b)


def test_generated_product_follows_the_generator_table():
    # the straight-line integer product is generated from GEN_SIGN and
    # GEN_INDEX; read back blade by blade it must give the table itself
    blades = [tuple(int(k == i) for k in range(8)) for i in range(8)]
    for i in range(8):
        for j in range(8):
            want = [0] * 8
            want[oracle.GEN_INDEX[i][j]] = oracle.GEN_SIGN[i][j]
            assert oracle._fmul_ints(blades[i], blades[j]) == tuple(want), (i, j)
            assert oracle.fmul(blades[i], blades[j]) == tuple(want), (i, j)


def test_ffunctionals_agree_with_floats():
    rng = random.Random(131)
    for _ in range(100):
        a = random_multivector(rng)
        f = a.functionals()
        g = oracle.ffunctionals(a)
        assert (g.N, g.T, g.P, g.T1, g.T3, g.T5, g.K) == (f.N, f.T, f.P, f.T1, f.T3, f.T5, f.K)


def test_fmp_inverse_matches_float_path():
    rng = random.Random(137)
    for _ in range(100):
        a = random_nonzero_mixed(rng)
        exact = oracle.fmp_inverse(a)
        approx = mp_inverse(a).pinv
        assert all(abs(float(x) - y) <= 1e-12 * (1 + abs(y)) for x, y in zip(exact, approx.coeffs))


def test_fvec_validation():
    with pytest.raises(ValueError):
        oracle.fvec([1, 2, 3])
    with pytest.raises(TypeError):
        oracle.fvec(["a"] * 8)
    assert oracle.fvec(np.arange(8.0)) == oracle.fvec(np.arange(8)) == tuple(range(8))
    assert oracle.rank(np.eye(3, dtype=int)) == 3


def test_fvec_reads_floats_as_exact_does():
    # whole floats take the one-pass read, the rest the entry-wise one;
    # both must agree with _exact in value and in type
    for c in ((1.0, -2.0, 0.0, 3.0, -0.0, 2.0 ** 60, -7.0, 5.0),
              (0.5, -1.5, 2.5, -3.5, 0.5, 4.5, -0.5, 1.5),
              (1.0, 0.5, -2.0, -1.5, 0.0, 2.0 ** -30, 3.0, -4.0)):
        for a in (c, Multivector(c)):
            got, want = oracle.fvec(a), tuple(map(oracle._exact, c))
            assert got == want and list(map(type, got)) == list(map(type, want)), c


def test_finverse_raises_on_singular():
    with pytest.raises(ZeroDivisionError):
        oracle.finverse(e1 + e2)


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction kernels they replaced
# ---------------------------------------------------------------------------


def _ref_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _ref_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _ref_fmul(a, b):
    a, b = oracle.fvec(a), oracle.fvec(b)
    out = [0] * 8
    for i in range(8):
        for j in range(8):
            out[oracle.GEN_INDEX[i][j]] += oracle.GEN_SIGN[i][j] * a[i] * b[j]
    return tuple(out)


def _ref_rref(m, pivot_limit=None):
    # Gauss-Jordan over Fractions: every pivot row divided by its pivot.
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    limit = ncols if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    for col in range(limit):
        row = next((i for i in range(r, nrows) if a[i][col]), None)
        if row is None:
            continue
        a[r], a[row] = a[row], a[r]
        inv = 1 / Fraction(a[r][col])
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots


def _ref_solve(a, b):
    ncols = len(a[0])
    red, piv = _ref_rref([list(row) + [bv] for row, bv in zip(a, b)], pivot_limit=ncols)
    consistent = all(not red[i][ncols] for i in range(len(piv), len(a)))
    particular = None
    if consistent:
        particular = [0] * ncols
        for i, col in enumerate(piv):
            particular[col] = red[i][ncols]
    nullspace = []
    for j in (j for j in range(ncols) if j not in piv):
        v = [0] * ncols
        v[j] = 1
        for i, col in enumerate(piv):
            v[col] = -red[i][j]
        nullspace.append(v)
    return consistent, particular, nullspace


def _ref_pinv(m):
    # (exact_pinv, rank) over the Fraction kernels: A = F G with F the pivot
    # columns and G the nonzero echelon rows, then A+ = G^T inv(F^T A G^T) F^T,
    # with the input and each row of G scaled to integers.  The rank is read
    # off the first elimination, of the integer-scaled input.
    a = [[Fraction(x) for x in row] for row in m]
    scale = math.lcm(*(x.denominator for row in a for x in row))
    ai = [[int(x * scale) for x in row] for row in a]
    red, piv = _ref_rref(ai)
    r = len(piv)
    if r == 0:
        return oracle.zeros(len(a[0]), len(a)), 0
    f = [[row[j] for j in piv] for row in ai]
    gi = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in red[:r]]
    ft, git = oracle.transpose(f), oracle.transpose(gi)
    mid = _ref_matmul(_ref_matmul(ft, ai), git)
    red, piv = _ref_rref([row + ident for row, ident in zip(mid, oracle.identity(r))], r)
    assert piv == list(range(r))
    det = _ref_det(mid)
    adj = [[int(v * det) for v in row[r:]] for row in red]
    x = _ref_matmul(_ref_matmul(git, adj), ft)
    return [[Fraction(scale * v, det) for v in row] for row in x], r


def _ref_char_poly(a):
    n = len(a)
    coeffs = [Fraction(1)]
    work = [[Fraction(x) for x in row] for row in a]
    for k in range(1, n + 1):
        c = -sum(work[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            work[i][i] += c
        work = _ref_matmul(a, work)
    return coeffs


def _ref_det(a):
    # Gaussian elimination over Fractions: the signed product of the pivots.
    a = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(len(a)):
        row = next((i for i in range(k, len(a)) if a[i][k]), None)
        if row is None:
            return Fraction(0)
        if row != k:
            a[k], a[row] = a[row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _random_matrix(rng, nrows, ncols, max_den):
    kind = rng.randrange(6)
    if kind == 0:
        return oracle.zeros(nrows, ncols)

    def entry():
        if rng.random() < 0.3:
            return 0
        num = rng.randint(-4, 4)
        return Fraction(num, rng.randint(1, max_den)) if max_den > 1 else num

    if kind == 1 and min(nrows, ncols) > 1:  # rank-deficient: a product through a thin middle
        k = rng.randint(1, min(nrows, ncols) - 1)
        left = [[entry() for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        return _ref_matmul(left, right)
    if kind == 2 and nrows > 1:  # a repeated row up to scale
        a = [[entry() for _ in range(ncols)] for _ in range(nrows - 1)]
        a.insert(rng.randrange(nrows), [Fraction(rng.randint(-2, 2)) * x for x in rng.choice(a)])
        return a
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _matrices(seed, count):
    rng = random.Random(seed)
    for n in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 10)
        if n % 4 == 0:
            ncols = nrows  # squares for det and char_poly
        yield _random_matrix(rng, nrows, ncols, rng.randint(1, 4)), rng


def _frac_matrix(a):
    return [[Fraction(x) for x in row] for row in a]


def test_kernels_match_fraction_reference():
    for a, rng in _matrices(211, 2000):
        nrows, ncols = len(a), len(a[0])
        pinv, rank = _ref_pinv(a)
        assert oracle.rank(a) == rank
        assert oracle.rank(_frac_matrix(a)) == rank  # whole Fractions read like ints

        width = rng.randint(1, 2)
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width)]
             for _ in range(nrows)]
        if rng.randrange(2):
            rhs = [row[0] for row in b]
        else:  # consistent by construction
            rhs = _ref_mat_vec(a, [rng.randint(-2, 2) for _ in range(ncols)])
        sol = oracle.exact_solve(a, rhs)
        assert (sol.consistent, sol.particular, sol.nullspace) == _ref_solve(a, rhs)

        assert oracle.exact_pinv(a) == pinv
        if nrows == ncols:
            assert oracle.exact_det(a) == _ref_det(a)
            # a monic degree-n polynomial is fixed by its values at n points;
            # Berkowitz and Bareiss share no code but the denominators
            pol = oracle.char_poly(a)
            assert len(pol) == nrows + 1 and pol[0] == 1
            for lam in range(nrows):
                shifted = [[lam * (i == j) - x for j, x in enumerate(row)]
                           for i, row in enumerate(a)]
                assert oracle.poly_eval_gaussian(pol, lam, 0) == (oracle.exact_det(shifted), 0)


def test_echelon_pass_keeps_pivots_last_pivot_and_parity():
    # rank and exact_det stop at echelon form; the rows at and below each
    # pivot must still see the full Gauss-Jordan pass's updates
    for a, rng in _matrices(241, 600):
        ncols = len(a[0])
        if rng.randrange(2):
            a = _frac_matrix(a)
        ints = oracle._integral(a)[1]
        for limit in (ncols, rng.randint(0, ncols)):
            full = oracle._rref_ints(ints, limit)
            echelon = oracle._rref_ints(ints, limit, echelon=True)
            assert echelon[1:] == full[1:], (a, limit)
            r = len(full[1])
            assert echelon[0][r:] == full[0][r:]  # rows below the rank agree too
    square = oracle.fleft_matrix(e0 + e2 + e6)
    assert oracle._rref_ints(square, 8, echelon=True)[1:] == oracle._rref_ints(square, 8)[1:]


def test_left_matrix_char_poly_matches_fraction_reference():
    rng = random.Random(223)
    for _ in range(40):
        a = oracle.fleft_matrix([Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(8)])
        pol = oracle.char_poly(a)
        assert pol == _ref_char_poly(a)
        assert pol[-1] == oracle.exact_det(a) == _ref_det(a)


def test_products_match_fraction_reference():
    rng = random.Random(227)
    for n in range(500):
        m, k, p = rng.randint(1, 9), rng.randint(1, 10), rng.randint(1, 9)
        a = _random_matrix(rng, m, k, rng.randint(1, 4))
        b = _random_matrix(rng, k, p, rng.randint(1, 4))
        v = [row[0] for row in _random_matrix(rng, k, 1, rng.randint(1, 4))]
        assert oracle.matmul(a, b) == _ref_matmul(a, b)
        assert oracle.mat_vec(a, v) == _ref_mat_vec(a, v)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)]
        y = [rng.randint(-5, 5) for _ in range(8)]
        assert oracle.fmul(x, y) == _ref_fmul(x, y)
        assert oracle.fmul(y, x) == _ref_fmul(y, x)
        assert oracle.fmul(x, x) == _ref_fmul(x, x)


def _entries(x):
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _entries(y)
    else:
        yield x


def _kernel_outputs(a, b):
    sol = oracle.exact_solve(a, b)
    out = [oracle.rank(a), sol.particular or [], sol.nullspace, oracle.exact_pinv(a),
           oracle.matmul(a, oracle.transpose(a)), oracle.mat_vec(oracle.transpose(a), b)]
    if len(a) == len(a[0]):
        out += [oracle.char_poly(a), oracle.exact_det(a)]
    return out


def test_whole_values_are_ints():
    for a, rng in _matrices(233, 300):
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in a]
        for x in _entries(_kernel_outputs(a, b)):
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x
    rng = random.Random(239)
    for _ in range(100):
        x = [rng.randint(-3, 3) for _ in range(8)]
        y = [Fraction(rng.randint(-3, 3), 2) for _ in range(8)]
        for v in oracle.fmul(x, y) + oracle.fmul(y, y):
            assert type(v) is int or v.denominator != 1
    # integer input: only ints wherever the exact value is whole
    la = oracle.fleft_matrix(e0 + e2 + e6)
    for x in _entries(_kernel_outputs(la, list(range(8)))):
        assert type(x) is int or x.denominator != 1
    whole = [oracle.exact_pinv(oracle.identity(3)), oracle.char_poly(la)]
    for x in _entries(whole):
        assert type(x) is int
