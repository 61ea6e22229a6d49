"""Exact rational cross-check kit.

Everything here runs over exact numbers (Python ints and
:class:`fractions.Fraction`), so results on integer or dyadic inputs are
exact.  Two independent layers:

* generic linear algebra on small rational matrices: reduced row echelon
  form, rank, fraction-free determinant, pseudoinverse via full-rank
  factorization, linear solve with nullspace basis, and the
  characteristic polynomial by the Faddeev-LeVerrier recurrence;

* a mirror of the multivector closed forms (product, involutions, scalar
  forms, inverses, representation matrices) built on a blade table that is
  re-derived from the generator rules i1^2 = +1, i2^2 = i3^2 = -1 with
  anticommutation - deliberately not shared with the hand-transcribed
  table in :mod:`cl12.multivector`, so each validates the other.

Matrices are plain lists of lists; vectors are lists.  The matrix kernels
(``matmul``, ``mat_vec``, ``rref``, ``rank``, ``exact_det``,
``exact_pinv``, ``exact_solve``, ``char_poly``) and ``fmul`` run on Python
ints, and every operand enters them one way: an operand of ints alone is
recognised by type and used as it is; any other is read exactly (any
integer type through ``int``, a float as the rational it denotes, and
anything but an integer, Fraction or float raises TypeError), scaled by
the lcm of its denominators, the work is done on the integer numerators,
and each output entry is divided back once.
No kernel modifies its input.  Elimination is one fraction-free
Gauss-Jordan pass (Bareiss 1968): every update ``(p*x - f*y) // prev`` is
an exact integer division.  These kernels return an int wherever the exact
value is whole and a Fraction only where it is not.  The elementwise
helpers (``fadd``, ``fscale``, ``ffunctionals``, ...) use plain Python
arithmetic and may return a whole-valued Fraction when given Fractions.
Nothing here checks its own results; :mod:`cl12.verify` does.  Intended
for desk-scale verification, not bulk numerics.  The module loads no
numpy, so two CLI commands use it at run time: ``rep`` prints
``fleft_matrix`` or ``fright_matrix`` and ``det`` takes ``exact_det`` of
``fleft_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Integral
from operator import mul
from typing import NamedTuple, Sequence

__all__ = [
    "GEN_INDEX",
    "GEN_SIGN",
    "FracFunctionals",
    "ExactSolution",
    "fvec",
    "fadd",
    "fsub",
    "fscale",
    "fmul",
    "fconjugate",
    "fprime",
    "fcre",
    "fcim",
    "ffunctionals",
    "finverse",
    "fmp_inverse",
    "fleft_matrix",
    "fright_matrix",
    "identity",
    "zeros",
    "transpose",
    "matmul",
    "mat_vec",
    "rref",
    "rank",
    "exact_det",
    "exact_pinv",
    "exact_solve",
    "char_poly",
    "poly_mul",
    "poly_derivative",
    "poly_eval",
    "poly_eval_gaussian",
]

_GENERATOR_SQUARES = (1, -1, -1)  # i1^2, i2^2, i3^2


def _generated_table() -> tuple[list[list[int]], list[list[int]]]:
    # Blade index t is the bitmask of generators it contains (bit g <-> i_{g+1});
    # multiply blade s by the generators of t in ascending order, counting the
    # transpositions needed to keep the word sorted.
    sign = [[0] * 8 for _ in range(8)]
    index = [[0] * 8 for _ in range(8)]
    for s in range(8):
        for t in range(8):
            sgn = 1
            cur = s
            for g in range(3):
                if t >> g & 1:
                    if bin(cur >> (g + 1)).count("1") % 2:
                        sgn = -sgn
                    if cur >> g & 1:
                        sgn *= _GENERATOR_SQUARES[g]
                    cur ^= 1 << g
            sign[s][t] = sgn
            index[s][t] = cur
    return sign, index


GEN_SIGN, GEN_INDEX = _generated_table()


def _exact(x):
    """Coerce to an exact number: ints stay ints, other integers (numpy's,
    say) become ints, floats become Fractions (whole-valued floats collapse
    back to int)."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, float):
        if x.is_integer():
            return int(x)
        return Fraction(x)
    if isinstance(x, Integral):
        return int(x)
    raise TypeError(f"not an exact-representable number: {x!r}")


def _div(x, y):
    return Fraction(x) / Fraction(y)


def _ratio(num: int, den: int):
    """num / den as an int when it is whole, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


_INTS = frozenset({int, bool})
_RATIONALS = _INTS | {Fraction}


def _integral(rows):
    """``(den, rows * den)`` with den the lcm of the entries' denominators.

    The only way a matrix enters the kernels.  The scaled rows are lists of
    ints.  Rows whose entries are all ints come back as they are, found by
    type alone; other entries are read through :func:`_exact`, so a numpy
    integer counts as its int, a float as the rational it denotes, and
    anything else raises TypeError.
    """
    types = set(map(type, chain.from_iterable(rows)))
    if types <= _INTS:
        return 1, rows
    if not types <= _RATIONALS:
        rows = [[_exact(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for x in chain.from_iterable(rows)))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# exact multivector mirror
# ---------------------------------------------------------------------------


def fvec(a) -> tuple:
    """Exact coefficient tuple from a Multivector or any 8-sequence."""
    coeffs = getattr(a, "coeffs", a)
    # an 8-tuple of ints (what the mirror itself returns) is already exact,
    # and _exact would hand every entry back unchanged
    if type(coeffs) is tuple and len(coeffs) == 8 and set(map(type, coeffs)) <= _INTS:
        return coeffs
    out = tuple(_exact(x) for x in coeffs)
    if len(out) != 8:
        raise ValueError(f"expected 8 coefficients, got {len(out)}")
    return out


def fadd(a, b) -> tuple:
    return tuple(x + y for x, y in zip(fvec(a), fvec(b)))


def fsub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(fvec(a), fvec(b)))


def fscale(lam, a) -> tuple:
    lam = _exact(lam)
    return tuple(lam * x for x in fvec(a))


def fmul(a, b) -> tuple:
    """Exact algebra product over the generator-derived table."""
    da, (a,) = _integral((fvec(a),))
    db, (b,) = _integral((fvec(b),))
    out = [0] * 8
    for i in range(8):
        ai = a[i]
        if not ai:
            continue
        signs = GEN_SIGN[i]
        index = GEN_INDEX[i]
        for j in range(8):
            bj = b[j]
            if bj:
                out[index[j]] += signs[j] * ai * bj
    den = da * db
    return tuple(out) if den == 1 else tuple(_ratio(x, den) for x in out)


def fconjugate(a) -> tuple:
    c = fvec(a)
    return (c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], c[7])


def fprime(a) -> tuple:
    c = fvec(a)
    return (c[0], c[1], -c[2], c[3], -c[4], c[5], -c[6], -c[7])


def fcre(a) -> tuple:
    c = fvec(a)
    return (c[0], 0, 0, 0, 0, 0, 0, c[7])


def fcim(a) -> tuple:
    c = fvec(a)
    return (0, c[1], c[2], c[3], c[4], c[5], c[6], 0)


class FracFunctionals(NamedTuple):
    N: object
    T: object
    P: object
    T1: object
    T3: object
    T5: object
    K: object


def ffunctionals(a) -> FracFunctionals:
    c = fvec(a)
    n = c[0] ** 2 - c[1] ** 2 + c[2] ** 2 - c[3] ** 2 + c[4] ** 2 - c[5] ** 2 + c[6] ** 2 - c[7] ** 2
    t = c[0] * c[7] + c[2] * c[5] - c[1] * c[6] - c[3] * c[4]
    p = n * n + 4 * t * t
    t1 = c[0] * c[1] - c[2] * c[3] - c[4] * c[5] + c[6] * c[7]
    t3 = c[0] * c[3] + c[1] * c[2] + c[4] * c[7] + c[5] * c[6]
    t5 = c[0] * c[5] + c[1] * c[4] - c[2] * c[7] - c[3] * c[6]
    k = c[0] ** 2 + c[2] ** 2 + c[4] ** 2 + c[6] ** 2
    return FracFunctionals(n, t, p, t1, t3, t5, k)


def finverse(a) -> tuple:
    """Exact two-sided inverse; raises ZeroDivisionError when P = 0."""
    f = ffunctionals(a)
    if f.P == 0:
        raise ZeroDivisionError("element with P = 0 has no inverse")
    central = (_div(f.N, f.P), 0, 0, 0, 0, 0, 0, _div(-2 * f.T, f.P))
    return fmul(central, fconjugate(a))


def fmp_inverse(a) -> tuple:
    """Exact generalized inverse (total: zero maps to zero)."""
    c = fvec(a)
    if not any(c):
        return c
    f = ffunctionals(a)
    if f.P != 0:
        return finverse(a)
    return fscale(_div(1, 4 * f.K), fprime(a))


def fleft_matrix(a) -> list[list]:
    """Exact matrix of x -> a*x on coefficient vectors."""
    c = fvec(a)
    out = [[0] * 8 for _ in range(8)]
    for i in range(8):
        if c[i]:
            for j in range(8):
                out[GEN_INDEX[i][j]][j] += GEN_SIGN[i][j] * c[i]
    return out


def fright_matrix(a) -> list[list]:
    """Exact matrix of x -> x*a on coefficient vectors."""
    c = fvec(a)
    out = [[0] * 8 for _ in range(8)]
    for j in range(8):
        if c[j]:
            for i in range(8):
                out[GEN_INDEX[i][j]][i] += GEN_SIGN[i][j] * c[j]
    return out


# ---------------------------------------------------------------------------
# exact matrix algebra
# ---------------------------------------------------------------------------


def identity(n: int) -> list[list]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> list[list]:
    return [[0] * n for _ in range(m)]


def transpose(a) -> list[list]:
    return [list(col) for col in zip(*a)]


def matmul(a, b) -> list[list]:
    (da, a), (db, bt) = _integral(a), _integral(list(zip(*b)))
    den = da * db
    out = [[sum(map(mul, row, col)) for col in bt] for row in a]
    return out if den == 1 else [[_ratio(x, den) for x in row] for row in out]


def mat_vec(a, v) -> list:
    (da, a), (dv, (v,)) = _integral(a), _integral((v,))
    den = da * dv
    out = [sum(map(mul, row, v)) for row in a]
    return out if den == 1 else [_ratio(x, den) for x in out]


def _rref_ints(a: list[list[int]], limit: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Takes the pivots as :func:`rref` does and returns ``(F, pivots, d,
    sign)`` with ``F = d * R``: R is the matrix the rational elimination
    reaches (rows below the rank included) and d the last pivot of F (1
    without pivots), the determinant of the pivot block of the row-swapped
    input; ``sign`` is the parity of the row swaps, so for a square input
    of full rank ``sign * d`` is its determinant.  Each update
    ``(p*x - f*y) // prev`` is exact by Sylvester's identity (Bareiss
    1968), so every entry stays an int.  Rows are replaced, never written
    to, so only the outer list is copied and ``a`` is left as it was.
    """
    a = list(a)
    nrows = len(a)
    pivots: list[int] = []
    prev = sign = 1
    r = 0
    for col in range(limit):
        row = next((i for i in range(r, nrows) if a[i][col]), None)
        if row is None:
            continue
        if row != r:
            a[r], a[row] = a[row], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i in range(nrows):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots, prev, sign


def rref(m, pivot_limit: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns.

    Pivot columns are chosen left to right, taking the first row with a
    nonzero entry, so the result is deterministic.  ``pivot_limit``
    restricts pivoting to the first columns (used for augmented systems)
    and must lie in 0..ncols, else ValueError.  Rows below the rank hold
    what the elimination left there.
    """
    den, a = _integral(m)
    ncols = len(a[0]) if a else 0
    limit = ncols if pivot_limit is None else pivot_limit
    if not 0 <= limit <= ncols:
        raise ValueError(f"pivot_limit must be in 0..{ncols}, got {pivot_limit}")
    red, pivots, d, _ = _rref_ints(a, limit)
    r = len(pivots)
    # Normalising a pivot row cancels the factor den; the rows below the
    # rank stay linear in den*m and keep it.
    return [[_ratio(x, d if i < r else d * den) for x in row] for i, row in enumerate(red)], pivots


def rank(m) -> int:
    a = _integral(m)[1]
    return len(_rref_ints(a, len(a[0]) if a else 0)[1])


def exact_det(m):
    """Determinant by fraction-free (Bareiss) elimination; 1 for 0 x 0."""
    den, a = _integral(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d, sign = _rref_ints(a, n)
    return _ratio(sign * d, den**n) if len(pivots) == n else 0


def exact_pinv(m) -> list[list]:
    """Moore-Penrose inverse via full-rank factorization.

    Writes A = F @ G with F the pivot columns of A and G the nonzero rows
    of the reduced echelon form, then A+ = G.T @ inv(F.T @ A @ G.T) @ F.T.
    The result is not re-checked here: the ``oracle`` suite of
    :mod:`cl12.verify` counts the four Penrose equations on it.

    The input is scaled to an integer matrix (pinv is homogeneous of
    degree -1) and each row of G to its smallest integer multiple (row
    scaling of G cancels inside the formula).  One fraction-free pass over
    [mid | I] gives d * inv(mid) with d = +-det(mid), so the products run
    on plain ints and the single scalar denominator is divided back out at
    the end.
    """
    scale, ai = _integral(m)
    nrows = len(ai)
    ncols = len(ai[0]) if nrows else 0
    red, piv, _, _ = _rref_ints(ai, ncols)
    r = len(piv)
    if r == 0:
        return zeros(ncols, nrows)
    f = [[row[j] for j in piv] for row in ai]  # nrows x r
    gi = []  # r x ncols
    for row in red[:r]:
        g = math.gcd(*row)
        gi.append([x // g for x in row])
    ft = transpose(f)
    git = transpose(gi)
    mid = matmul(matmul(ft, ai), git)  # r x r integer, invertible by construction
    aug, _, det_mid, _ = _rref_ints([row + ident for row, ident in zip(mid, identity(r))], r)
    adj = [row[r:] for row in aug]  # det_mid * inv(mid)
    xnum = matmul(matmul(git, adj), ft)  # integer; pinv(ai) = xnum / det_mid
    return [[_ratio(scale * v, det_mid) for v in row] for row in xnum]


@dataclass(frozen=True)
class ExactSolution:
    """Outcome of an exact linear solve A x = b."""

    consistent: bool
    particular: list | None
    nullspace: list[list]


def exact_solve(m, b: Sequence) -> ExactSolution:
    """Solve A x = b exactly; free variables are set to zero.

    The nullspace basis (one vector per free column) is returned whether
    or not the system is consistent.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError("right-hand side length does not match row count")
    red, piv = rref([[*row, bv] for row, bv in zip(m, b)], pivot_limit=ncols)
    r = len(piv)
    consistent = all(not red[i][ncols] for i in range(r, nrows))
    particular: list | None = None
    if consistent:
        particular = [0] * ncols
        for i, col in enumerate(piv):
            particular[col] = red[i][ncols]
    free = [j for j in range(ncols) if j not in piv]
    nullspace = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for i, col in enumerate(piv):
            v[col] = -red[i][j]
        nullspace.append(v)
    return ExactSolution(consistent=consistent, particular=particular, nullspace=nullspace)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def char_poly(m) -> list:
    """Monic characteristic polynomial det(lambda I - A), descending powers.

    Computed by the Faddeev-LeVerrier trace recurrence; exact for rational
    entries.  For an n x n input the list has n + 1 coefficients and the
    leading one is 1.
    """
    den, a = _integral(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    # On the integer matrix den*A every coefficient and every iterate is an
    # integer, so the division by k is exact; coefficient k of den*A is
    # den**k times that of A.
    coeffs = [1]
    work = [list(row) for row in a]
    for k in range(1, n + 1):
        c = -sum(work[i][i] for i in range(n)) // k
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            work[i][i] += c
        work = matmul(a, work)
    return coeffs if den == 1 else [_ratio(c, den**k) for k, c in enumerate(coeffs)]


def poly_mul(p: Sequence, q: Sequence) -> list:
    """Product of two coefficient lists (descending powers)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += _exact(x) * _exact(y)
    return out


def poly_derivative(p: Sequence) -> list:
    n = len(p) - 1
    return [_exact(c) * (n - i) for i, c in enumerate(p[:-1])]


def poly_eval(p: Sequence, x):
    acc = 0
    x = _exact(x)
    for c in p:
        acc = acc * x + _exact(c)
    return acc


def poly_eval_gaussian(p: Sequence, re, im) -> tuple:
    """Evaluate at the Gaussian rational re + im*i, exactly."""
    re = _exact(re)
    im = _exact(im)
    acc_re, acc_im = 0, 0
    for c in p:
        acc_re, acc_im = acc_re * re - acc_im * im + _exact(c), acc_re * im + acc_im * re
    return acc_re, acc_im
