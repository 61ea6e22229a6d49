"""Exact rational cross-check kit.

Everything here runs over exact numbers (Python ints and
:class:`fractions.Fraction`), so results on integer or dyadic inputs are
exact.  Two independent layers:

* generic linear algebra on small rational matrices: rank,
  fraction-free determinant, pseudoinverse via full-rank factorization,
  linear solve with nullspace basis, and the characteristic polynomial
  by Berkowitz's division-free recurrence;

* a mirror of the multivector closed forms (product, involutions, scalar
  forms, inverses, representation matrices) built on a blade table that is
  re-derived from the generator rules i1^2 = +1, i2^2 = i3^2 = -1 with
  anticommutation - deliberately not shared with the hand-transcribed
  table in :mod:`cl12.multivector`, so each validates the other.  The
  product ``fmul`` runs a straight-line integer product generated from
  that table at import.

Matrices are plain lists of lists; vectors are lists.  The matrix kernels
(``matmul``, ``mat_vec``, ``rank``, ``exact_det``,
``scaled_pinv``, ``exact_pinv``, ``exact_solve``, ``char_poly``) and
``fmul`` run on Python ints, and every operand enters them one way: an
operand of ints alone is recognised by type and used as it is; any other
is read exactly (any integer type through ``int``, a float as the
rational it denotes, and anything but an integer, Fraction or float
raises TypeError), scaled by the lcm of its denominators, the work is
done on the integer numerators, and each output entry is divided back
once (``scaled_pinv`` hands the denominator back instead).
No kernel modifies its input.  Elimination is one fraction-free
Gauss-Jordan pass (Bareiss 1968): every update ``(p*x - f*y) // prev`` is
an exact integer division.  ``rank`` and ``exact_det`` read only the
pivots, the last pivot and the parity of the row swaps, so their pass
stops at echelon form.  These kernels return an int wherever the exact
value is whole and a Fraction only where it is not.  The elementwise
helpers (``fadd``, ``fconjugate``, ``ffunctionals``, ...) use plain Python
arithmetic and may return a whole-valued Fraction when given Fractions.

The two inverses keep that one denominator in the open: ``scaled_pinv``
and ``scaled_mp_inverse`` return ``(den, numerators)``, den a positive
int and the numerators ints, the convention of ``_integral``; their
exact values are numerators / den, which is all ``exact_pinv`` and
``fmp_inverse`` compute.  A caller that checks an identity can then
multiply it through by den and compare integers.  A square matrix of
full rank takes one fraction-free pass over [A | I], the full-rank
factorization's own degenerate case F = A, G = I.
Nothing here checks its own results: :mod:`cl12.verify` checks the
mirror, ``exact_solve`` and ``rank``, and the tier-1 tests check every
kernel against a Fraction reference.  Intended
for desk-scale verification, not bulk numerics.  Besides ``verify``, one
CLI command uses it at run time: ``det`` takes ``exact_det`` of
``fleft_matrix``.
"""

from __future__ import annotations

import math
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
    "fmul",
    "fconjugate",
    "fprime",
    "fcre",
    "ffunctionals",
    "scaled_mp_inverse",
    "finverse",
    "fmp_inverse",
    "fleft_matrix",
    "fright_matrix",
    "identity",
    "zeros",
    "transpose",
    "matmul",
    "mat_vec",
    "rank",
    "exact_det",
    "scaled_pinv",
    "exact_pinv",
    "exact_solve",
    "char_poly",
    "poly_mul",
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


def _whole(coeffs) -> tuple | None:
    """``coeffs`` as ints when it is an 8-tuple of ints or of whole floats,
    else None; one pass over the entries' types."""
    if type(coeffs) is tuple and len(coeffs) == 8:
        kinds = set(map(type, coeffs))
        # ints (what the mirror returns) are exact already, and whole floats
        # (a Multivector at desk scale) are the ints _exact would give
        if kinds <= _INTS:
            return coeffs
        if kinds == {float} and all(map(float.is_integer, coeffs)):
            return tuple(map(int, coeffs))
    return None


def fvec(a) -> tuple:
    """Exact coefficient tuple from a Multivector or any 8-sequence."""
    coeffs = getattr(a, "coeffs", a)
    whole = _whole(coeffs)
    if whole is not None:
        return whole
    out = tuple(_exact(x) for x in coeffs)
    if len(out) != 8:
        raise ValueError(f"expected 8 coefficients, got {len(out)}")
    return out


def _numerators(a) -> tuple[int, tuple]:
    """``(den, fvec(a) * den)``, the convention of ``_integral``; an operand
    that ``_whole`` reads has its types read once, with den = 1."""
    whole = _whole(getattr(a, "coeffs", a))
    if whole is not None:
        return 1, whole
    den, (c,) = _integral((fvec(a),))
    return den, c


def fadd(a, b) -> tuple:
    return tuple(x + y for x, y in zip(fvec(a), fvec(b)))


def _generate_fmul_ints():
    # One signed term a_i*b_j per blade pair, collected on e_(GEN_INDEX[i][j]).
    terms: list[list[str]] = [[] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            terms[GEN_INDEX[i][j]].append(f" {'+' if GEN_SIGN[i][j] > 0 else '-'} a{i}*b{j}")
    source = (
        "def _fmul_ints(a, b):\n"
        f"    {', '.join(f'a{i}' for i in range(8))} = a\n"
        f"    {', '.join(f'b{j}' for j in range(8))} = b\n"
        "    return (\n"
        + "".join(f"        {''.join(t).lstrip(' +')},\n" for t in terms)
        + "    )\n"
    )
    namespace: dict = {}
    exec(compile(source, "<cl12.oracle._fmul_ints>", "exec"), namespace)
    return namespace["_fmul_ints"]


#: _fmul_ints(a, b) -> the eight coefficients of a*b for integer a and b.
_fmul_ints = _generate_fmul_ints()


def fmul(a, b) -> tuple:
    """Exact algebra product over the generator-derived table."""
    da, a = _numerators(a)
    db, b = _numerators(b)
    out = _fmul_ints(a, b)
    den = da * db
    return out if den == 1 else tuple(_ratio(x, den) for x in out)


def fconjugate(a) -> tuple:
    c = fvec(a)
    return (c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], c[7])


def fprime(a) -> tuple:
    c = fvec(a)
    return (c[0], c[1], -c[2], c[3], -c[4], c[5], -c[6], -c[7])


def fcre(a) -> tuple:
    c = fvec(a)
    return (c[0], 0, 0, 0, 0, 0, 0, c[7])


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


def scaled_mp_inverse(a) -> tuple[int, tuple]:
    """Exact generalized inverse as ``(den, num)``: pinv(a) = num / den.

    ``den > 0`` and ``num`` is a tuple of ints.  On the integer element
    A = a * s (s the lcm of a's denominators) it is ``(P, (N - 2T e7) *
    conj(A))`` when P != 0, ``(4K, prime(A))`` when P = 0 and A != 0, and
    ``(1, zeros)`` for zero; num then carries the factor s back.
    """
    scale, c = _numerators(a)
    if not any(c):
        return 1, (0,) * 8
    f = ffunctionals(c)
    if f.P:
        den, num = f.P, fmul((f.N, 0, 0, 0, 0, 0, 0, -2 * f.T), fconjugate(c))
    else:
        den, num = 4 * f.K, fprime(c)
    return den, num if scale == 1 else tuple(scale * x for x in num)


def fmp_inverse(a) -> tuple:
    """Exact generalized inverse (total: zero maps to zero)."""
    den, num = scaled_mp_inverse(a)
    return tuple(_ratio(x, den) for x in num)


def finverse(a) -> tuple:
    """Exact two-sided inverse; raises ZeroDivisionError when P = 0."""
    if ffunctionals(a).P == 0:
        raise ZeroDivisionError("element with P = 0 has no inverse")
    return fmp_inverse(a)


def _matrix_tables() -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
    # e_i e_j = GEN_SIGN[i][j] e_(GEN_INDEX[i][j]) with k = GEN_INDEX[i][j]
    # a permutation of i for each j and of j for each i, so entry (k, j) of
    # L(a) is one signed coefficient, GEN_SIGN[i][j] c_i, and entry (k, i)
    # of R(a) is GEN_SIGN[i][j] c_j; each table holds (sign, blade)
    left = [[(0, 0)] * 8 for _ in range(8)]
    right = [[(0, 0)] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            k = GEN_INDEX[i][j]
            left[k][j] = GEN_SIGN[i][j], i
            right[k][i] = GEN_SIGN[i][j], j
    return left, right


_LEFT, _RIGHT = _matrix_tables()


def fleft_matrix(a) -> list[list]:
    """Exact matrix of x -> a*x on coefficient vectors."""
    c = fvec(a)
    return [[s * c[i] for s, i in row] for row in _LEFT]


def fright_matrix(a) -> list[list]:
    """Exact matrix of x -> x*a on coefficient vectors."""
    c = fvec(a)
    return [[s * c[j] for s, j in row] for row in _RIGHT]


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


def _rref_ints(a: list[list[int]], limit: int, *,
               echelon: bool = False) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivot columns are chosen left to right among the first ``limit``
    columns, each from the first row with a nonzero entry, so the result is
    deterministic.  Returns ``(F, pivots, d, sign)`` with ``F = d * R``: R
    is the matrix the rational elimination reaches (rows below the rank
    included) and d the last pivot of F (1 without pivots), the
    determinant of the pivot block of the row-swapped input; ``sign`` is
    the parity of the row swaps, so for a square input of full rank
    ``sign * d`` is its determinant.  Each update
    ``(p*x - f*y) // prev`` is exact by Sylvester's identity (Bareiss
    1968), so every entry stays an int.  Rows are replaced, never written
    to, so only the outer list is copied and ``a`` is left as it was.

    ``echelon=True`` stops at the fraction-free echelon form: the rows
    above each pivot are left alone, so F matches the full pass only in
    the rows below the rank.  The rows at and below each pivot get the
    same updates as in the full pass, so ``pivots``, ``d`` and ``sign`` are
    the same; ``rank`` and ``exact_det`` read nothing else.
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
        for i in range(r + 1 if echelon else 0, nrows):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots, prev, sign


def rank(m) -> int:
    a = _integral(m)[1]
    return len(_rref_ints(a, len(a[0]) if a else 0, echelon=True)[1])


def exact_det(m):
    """Determinant by fraction-free (Bareiss) elimination to echelon form:
    the last pivot times the parity of the row swaps; 1 for 0 x 0."""
    den, a = _integral(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d, sign = _rref_ints(a, n, echelon=True)
    return _ratio(sign * d, den**n) if len(pivots) == n else 0


def scaled_pinv(m) -> tuple[int, list[list[int]]]:
    """Moore-Penrose inverse as ``(den, X)``: pinv(m) = X / den, den > 0.

    The input is scaled to an integer matrix A (pinv is homogeneous of
    degree -1).  A square A is eliminated together with I; at full rank
    that one fraction-free pass over [A | I] ends in [d I | d inv(A)],
    which is the result (the factorization below with F = A, G = I).
    Otherwise A = F @ G with F the pivot columns of A and G the nonzero
    rows of its reduced echelon form, each scaled to its smallest integer
    multiple (row scaling of G cancels), and A+ = G.T @ inv(F.T @ A @
    G.T) @ F.T.  One pass over [mid | I] gives d * inv(mid), so the
    products run on plain ints and d is the denominator.  The result is
    not re-checked here; the tier-1 tests compare it with a Fraction
    reference and check the four Penrose equations on it.
    """
    scale, ai = _integral(m)
    nrows = len(ai)
    ncols = len(ai[0]) if nrows else 0
    if nrows == ncols:
        aug, piv, d, _ = _rref_ints([row + ident for row, ident in zip(ai, identity(nrows))], ncols)
        if len(piv) == nrows:
            return _positive(d, [[scale * x for x in row[ncols:]] for row in aug])
        red = [row[:ncols] for row in aug]  # the pivots look only at A's columns
    else:
        red, piv, _, _ = _rref_ints(ai, ncols)
    r = len(piv)
    if r == 0:
        return 1, zeros(ncols, nrows)
    f = [[row[j] for j in piv] for row in ai]  # nrows x r
    gi = []  # r x ncols
    for row in red[:r]:
        g = math.gcd(*row)
        gi.append([x // g for x in row])
    ft = transpose(f)
    git = transpose(gi)
    mid = matmul(matmul(ft, ai), git)  # r x r integer, invertible by construction
    aug, _, d, _ = _rref_ints([row + ident for row, ident in zip(mid, identity(r))], r)
    adj = [row[r:] for row in aug]  # d * inv(mid)
    xnum = matmul(matmul(git, adj), ft)  # integer; pinv(ai) = xnum / d
    return _positive(d, [[scale * x for x in row] for row in xnum])


def _positive(den: int, rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """``(den, rows)`` with the sign moved so that den > 0."""
    return (den, rows) if den > 0 else (-den, [[-x for x in row] for row in rows])


def exact_pinv(m) -> list[list]:
    """Moore-Penrose inverse: :func:`scaled_pinv` divided out once."""
    den, x = scaled_pinv(m)
    return [[_ratio(v, den) for v in row] for row in x]


class ExactSolution(NamedTuple):
    """Outcome of an exact linear solve A x = b."""

    consistent: bool
    particular: list | None
    nullspace: list[list]


def exact_solve(m, b: Sequence) -> ExactSolution:
    """Solve A x = b exactly; free variables are set to zero.

    The nullspace basis (one vector per free column) is returned whether
    or not the system is consistent.  One fraction-free pass over the
    integer [A | b] gives d times its reduced form, and only the entries
    returned are divided by d.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError("right-hand side length does not match row count")
    red, piv, d, _ = _rref_ints(_integral([[*row, bv] for row, bv in zip(m, b)])[1], ncols)
    r = len(piv)
    consistent = all(not red[i][ncols] for i in range(r, nrows))
    particular: list | None = None
    if consistent:
        particular = [0] * ncols
        for i, col in enumerate(piv):
            particular[col] = _ratio(red[i][ncols], d)
    free = [j for j in range(ncols) if j not in piv]
    nullspace = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for i, col in enumerate(piv):
            v[col] = _ratio(-red[i][j], d)
        nullspace.append(v)
    return ExactSolution(consistent, particular, nullspace)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def char_poly(m) -> list:
    """Monic characteristic polynomial det(lambda I - A), descending powers.

    Computed by Berkowitz's division-free recurrence (1984); exact for
    rational entries.  For an n x n input the list has n + 1 coefficients
    and the leading one is 1.
    """
    den, a = _integral(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    # Grow the leading block one row and column at a time: with A_k the
    # leading k x k block of the integer matrix den*A, its new row r, its
    # new column c and corner x, the polynomial of A_(k+1) is the Toeplitz
    # product of (1, -x, -r c, -r A_k c, ..., -r A_k^(k-1) c) with that of
    # A_k.  Everything stays an integer; coefficient k of den*A is den**k
    # times that of A.
    coeffs = [1]
    for k in range(n):
        row, block = a[k], a[:k]
        t = [1, -row[k]]
        if k:
            v = [r[k] for r in block]
            t.append(-sum(map(mul, row, v)))  # map stops at v's k entries
            for _ in range(k - 1):
                v = [sum(map(mul, r, v)) for r in block]
                t.append(-sum(map(mul, row, v)))
        coeffs = [sum(map(mul, coeffs, t[i::-1])) for i in range(k + 2)]
    return coeffs if den == 1 else [_ratio(c, den**k) for k, c in enumerate(coeffs)]


def poly_mul(p: Sequence, q: Sequence) -> list:
    """Product of two coefficient lists (descending powers)."""
    q = [_exact(y) for y in q]
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            x = _exact(x)
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def poly_eval_gaussian(p: Sequence, re, im) -> tuple:
    """Evaluate at the Gaussian rational re + im*i, exactly."""
    re = _exact(re)
    im = _exact(im)
    acc_re, acc_im = 0, 0
    for c in p:
        acc_re, acc_im = acc_re * re - acc_im * im + _exact(c), acc_re * im + acc_im * re
    return acc_re, acc_im
