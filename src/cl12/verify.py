"""Randomized cross-check suites pairing every closed form with the oracle.

Facts about the multiplication table are linear or bilinear, so each holds
for every element exactly when it holds on the eight blades; they run once
per :func:`run_all`, as exact integer checks on ``MUL_SIGN``, ``K8``,
``S8`` and the blade images of the 2x2 map (``_table_facts``).  Per draw,
each suite compares the library path on integer inputs, in floats (exact
at this scale), with the oracle's exact result, or checks a statement that
is not linear in the draw, and tallies pass/fail counts per check.  Checks
are exact where the integer inputs allow: an inverse comes from the oracle
as ``(den, num)`` with value num / den, so a x a = a is checked as
``a num a == den a``.  The rest compare through the one rule ``_within``
at a scale of the compared value's degree.  An exception raised inside a
suite ends it as one failed check that names it.  The CLI ``verify``
command is a thin shell over :func:`run_all`.

Some of the paper's identities are proved from rows that run anyway, so no
row re-derives them.  The inverse suite checks Penrose's four equations for
x = pinv(a) in the algebra.  L is linear and multiplicative, R linear and
order-reversing, and prime maps to transposition under both (table facts),
so L(x) and R(x) satisfy them for L(a) and R(a); as the Moore-Penrose
inverse is unique (Penrose 1955), L(pinv a) = pinv(L a) and likewise for R.
P = N^2 + 4T^2, so P(ab) = P(a) P(b) follows from the N(ab) and T(ab) rows
by Brahmagupta's identity.  The row a conj(a) = conj(a) a = N + 2T e7 gives
a conj(a) (N - 2T e7) = P, as e7 is central with e7^2 = -1, and shows that
conj fixes N and T; prime reverses products, commutes with conj and negates
e7, so a' conj(a') = (conj(a) a)' = N - 2T e7.  With p = pinv(a), a p a = a
(checked exactly, and ``mp_inverse`` against that inverse) makes p a
idempotent, and likewise b q, so y -> y - (p a) y (b q) is a projector.  The
Penrose rows check ``scaled_mp_inverse``'s singular branch, prime(a)/(4K),
on singular draws.  Conjugation fixes cre, as cre(ab) = cre(ba), and N and T,
as conj reverses products and x conj(x) is central, so (q x q^-1)
conj(q x q^-1) = x conj(x) (q conj(q)) (q^-1 conj(q^-1)) = x conj(x); in
floats the row "conjugated pair classified with verified witness" passes
only when the traces and dets of the pair's 2x2 images, 2 (c0 - c7 i) and
N - 2T i, agree within tol.  No suite computes the
generic ``oracle.scaled_pinv``: the tier-1 tests check it against a
Fraction reference and on Penrose's equations.
"""

from __future__ import annotations

import math
import random
import time
from functools import reduce
from itertools import combinations
from operator import add, mul

from . import oracle
from .inverse import MPKind, inverse, mp_inverse
from .matrep import K8, S8, left_matrix, right_matrix
from .multivector import (BASIS, DEFAULT_TOL, MUL_SIGN, Multivector, _check_tol, _from_m2,
                          _is_singular, _m2_mul, _to_m2, _within, eigenvalues)
from .similarity import SimilarityReason, conjugate_by, conjugation_matrix, is_similar
from .solver import solve_axb

__all__ = ["SuiteResult", "run_all", "random_multivector", "random_invertible", "random_singular"]


class SuiteResult:
    """Pass and fail counts of one suite, its first five failure messages
    and the wall time :func:`run_all` took over it, in seconds."""

    __slots__ = ("name", "passed", "failed", "messages", "seconds")

    def __init__(self, name: str, passed: int = 0, failed: int = 0,
                 messages: list[str] | None = None):
        self.name, self.passed, self.failed = name, passed, failed
        self.messages = [] if messages is None else messages
        self.seconds = 0.0

    def check(self, ok: bool, fmt: str, *args) -> None:
        """Count one check; its message is ``fmt % args`` (``fmt`` itself
        when there are no args), formatted only when the check fails and
        one of the first five to."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(fmt % args if args else fmt)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# -- input generators -------------------------------------------------------


def _randints(rng: random.Random, lo: int, hi: int, n: int = 8) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(n)]``, draw for draw: randint
    takes ``getrandbits(k)``, k the bit length of the width, until a draw
    falls below the width (``Random._randbelow`` on Python 3.10 to 3.13)."""
    width = hi - lo + 1
    k, bits, out = width.bit_length(), rng.getrandbits, []
    for _ in range(n):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(lo + r)
    return out


def random_multivector(rng: random.Random, lo: int = -5, hi: int = 5) -> Multivector:
    return Multivector(_randints(rng, lo, hi))


def random_invertible(rng: random.Random, tol: float = DEFAULT_TOL) -> Multivector:
    _check_tol(tol)
    while True:
        a = random_multivector(rng)
        if not _is_singular(a, tol):
            return a


# P is multiplicative, so multiplying a singular seed by anything stays
# singular; both one-sided factors appear in the wild, use both.
_SINGULAR_SEEDS = (
    Multivector((0, 1, 1, 0, 0, 0, 0, 0)),  # e1 + e2
    Multivector((1, 1, 0, 0, 0, 0, 0, 0)),  # 1 + e1
)


def random_singular(rng: random.Random) -> Multivector:
    while True:
        y = random_multivector(rng, -3, 3)
        a = (_SINGULAR_SEEDS[rng.randrange(2)] * y if rng.randrange(2)
             else y * _SINGULAR_SEEDS[rng.randrange(2)])
        if not a.is_zero():
            return a


def _mixed(rng: random.Random) -> Multivector:
    return random_singular(rng) if rng.randrange(2) else random_multivector(rng)


def _feq(a: Multivector, b) -> bool:
    return oracle.fvec(a) == oracle.fvec(b)


def _times(k: int, x):
    """k * x for an exact vector, as the same kind of list or tuple."""
    return type(x)(k * v for v in x)


def _det(m) -> float:
    """Determinant of a small float matrix, by elimination with partial pivoting."""
    a, det = [list(row) for row in m], 1.0
    for k in range(len(a)):
        p = max(range(k, len(a)), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        det *= a[k][k] if p == k else -a[k][k]
        if not det:
            return 0.0
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    return det


# -- suites -----------------------------------------------------------------


def _table_facts(res: SuiteResult) -> None:
    """The blade table's facts, each checked once and exactly on the blades.

    e_i e_j = s[i][j] e_(i^j) with s = ``MUL_SIGN``, so L(e_t) holds s[t][j]
    at (t^j, j) and R(e_t) holds s[i][t] at (i^t, i).  The involutions'
    signs are the oracle's, read off the element with all coefficients 1.
    """
    s, pairs = MUL_SIGN, [(i, j) for i in range(8) for j in range(8)]
    conj, prime, cre = (f((1,) * 8) for f in (oracle.fconjugate, oracle.fprime, oracle.fcre))
    res.check(
        [list(r) for r in s] == oracle.GEN_SIGN
        and all(oracle.GEN_INDEX[i][j] == i ^ j for i, j in pairs),
        "blade table (signs, XOR index rule) disagrees with the generator-derived one",
    )
    res.check(all(s[i][j] * s[i ^ j][k] == s[j][k] * s[i][j ^ k] for i, j in pairs for k in range(8)),
              "blade table: associativity")
    res.check(all(s[i][j] * d[i ^ j] == d[i] * d[j] * s[j][i] for d in (conj, prime) for i, j in pairs),
              "blade table: conjugate and prime reverse products")
    # blades commute or anticommute, so the centre is spanned by the blades
    # that commute with every blade, and cre must keep exactly those
    res.check(all(s[i][j] == s[j][i] for i, j in pairs if cre[i ^ j])
              and tuple(int(all(s[t][j] == s[j][t] for j in range(8))) for t in range(8)) == cre,
              "blade table: cre(ab) = cre(ba), and the centre is span{e0, e7}")
    k8, s8 = (tuple(int(d[i][i]) for i in range(8)) for d in (K8, S8))
    res.check(all(s[i][t] == k8[i ^ t] * k8[i] * s[t][i ^ t]  # R = K8 L^T K8
                  and prime[t] * s[t][i] == s[t][t ^ i]  # L(a') = L(a)^T
                  and prime[t] * s[i][t] == s[i ^ t][t]  # R(a') = R(a)^T
                  and conj[t] * s[t][i] == s8[t ^ i] * s8[i] * s[t][t ^ i]  # L(conj a) = S8 L^T S8
                  and conj[t] * s[i][t] == s8[i ^ t] * s8[i] * s[i ^ t][t]  # R(conj a) = S8 R^T S8
                  for t, i in pairs),
              "blade table: R = K8 L^T K8, prime and conjugate transport to transposition")
    # the 2x2 map: e0 to the identity, e1, e2 and e4 to anticommuting
    # matrices that square as the generators do, every other blade to the
    # product of its generators in index order, prime to the adjoint
    m2 = [_to_m2(e.coeffs) for e in BASIS]
    gens = (m2[1], m2[2], m2[4])
    res.check(
        m2[0] == ((1, 0), (0, 1))
        and [_m2_mul(g, g) for g in gens] == [((q, 0), (0, q)) for q in oracle._GENERATOR_SQUARES]
        and all(_m2_mul(x, y) == _m2_mul(((-1, 0), (0, -1)), _m2_mul(y, x))
                for x, y in combinations(gens, 2))
        and all(reduce(_m2_mul, [gens[g] for g in range(3) if t >> g & 1], m2[0]) == m
                for t, m in enumerate(m2))
        and all(tuple(tuple(v.conjugate() for v in col) for col in zip(*m))
                == _m2_mul(((p, 0), (0, p)), m) for p, m in zip(prime, m2)),
        "2x2 map on the blades: generator relations, blade products, prime as conjugate transpose",
    )


def _suite_multivector(res: SuiteResult, trials: int, seed: int, tol: float) -> None:
    rng = random.Random(seed)
    _table_facts(res)

    for n in range(trials):
        a, b, c = (random_multivector(rng) for _ in range(3))
        fa, fb = oracle.fvec(a), oracle.fvec(b)
        res.check(_feq((a * b) * c, oracle.fmul(oracle.fmul(fa, fb), oracle.fvec(c))),
                  "trial %d: product disagrees with rational mirror", n)
        res.check(_feq(a.conjugate(), oracle.fconjugate(fa)) and _feq(a.prime(), oracle.fprime(fa))
                  and _feq(a.cre(), oracle.fcre(fa)),
                  "trial %d: conjugate, prime or cre disagrees with rational mirror", n)

        f, g = oracle.ffunctionals(fa), oracle.ffunctionals(fb)
        fab = oracle.ffunctionals(oracle.fmul(fa, fb))
        central = (f.N, 0, 0, 0, 0, 0, 0, 2 * f.T)
        res.check(oracle.fmul(fa, oracle.fconjugate(fa)) == oracle.fvec(central)
                  and oracle.fmul(oracle.fconjugate(fa), fa) == oracle.fvec(central),
                  "trial %d: a * conj(a) != N + 2T e7", n)
        res.check(fab.T == f.N * g.T + g.N * f.T, "trial %d: T(ab) identity", n)
        res.check(fab.N == f.N * g.N - 4 * f.T * g.T, "trial %d: N(ab) identity", n)

        s = oracle.fvec(random_singular(rng))
        sf = oracle.ffunctionals(s)
        total = sum(x * x for x in s)
        expansion = (total, 2 * sf.T1, 0, 2 * sf.T3, 0, 2 * sf.T5, 0, 0)
        res.check(oracle.fmul(oracle.fprime(s), s) == oracle.fvec(expansion),
                  "trial %d: prime(a) * a expansion on singular input", n)
        res.check(sf.T1 ** 2 + sf.T3 ** 2 + sf.T5 ** 2 == sf.K ** 2,
                  "trial %d: T1^2 + T3^2 + T5^2 = K^2 on singular input", n)
        res.check(sf.K > 0, "trial %d: K > 0 for singular nonzero input", n)

        c0, c7 = _randints(rng, -5, 5, 2)
        probe = rng.choice([a, Multivector((c0, 0, 0, 0, 0, 0, 0, c7))])
        res.check(probe.is_central(0.0) == (not any(probe.coeffs[1:7])),
                  "trial %d: is_central(0) vs a zero e1..e6 part", n)


def _suite_matrix_rep(res: SuiteResult, trials: int, seed: int, tol: float) -> None:
    rng = random.Random(seed)
    for n in range(trials):
        a = random_multivector(rng)
        la_exact, ra_exact = oracle.fleft_matrix(a), oracle.fright_matrix(a)
        res.check(list(map(list, left_matrix(a))) == la_exact
                  and list(map(list, right_matrix(a))) == ra_exact,
                  "trial %d: generated left and right matrices vs the oracle's", n)

        # exact: det L(a) is the constant coefficient of its characteristic
        # polynomial, and P is a whole double on these integer inputs
        f = a.functionals()
        pol = oracle.char_poly(la_exact)
        det_r = oracle.exact_det(ra_exact)
        res.check(pol[-1] == det_r == f.P * f.P,
                  "trial %d: det = P^2 (det L=%s, det R=%s, P^2=%g)", n, pol[-1], det_r, f.P * f.P)

        # the 2x2 complex image; exact, as every entry is a Gaussian integer
        ma = _to_m2(a.coeffs)
        res.check(_from_m2(ma) == a, "trial %d: 2x2 image round trip", n)
        det = ma[0][0] * ma[1][1] - ma[0][1] * ma[1][0]
        res.check(det == complex(f.N, -2.0 * f.T) and f.P == det.real ** 2 + det.imag ** 2,
                  "trial %d: det of the 2x2 image is N - 2T i, so P = |det|^2 (det = %s)", n, det)

        # the eigenvalues are the roots of q = (l^2 - 2l(c0 + c7 i) + N + 2T i)
        # times its conjugate, each twice; q's degree-k coefficient at scale C(4, k) m^k
        c0, c7 = a.coeffs[0], a.coeffs[7]
        q = [1, -4 * c0, 2 * f.N + 4 * (c0 * c0 + c7 * c7), -4 * (c0 * f.N + 2 * c7 * f.T), f.P]
        res.check(pol == oracle.poly_mul(q, q), "trial %d: char poly of L(a) is q^2", n)
        lams = eigenvalues(a).values
        m = max(map(abs, lams))
        monic = [1]  # prod (l - lam), descending powers
        for lam in lams:
            monic = [x - lam * y for x, y in zip(monic + [0], [0] + monic)]
        gaps = [abs(x - y) for x, y in zip(monic, q)]
        res.check(all(_within(g, tol, math.comb(4, k) * m ** k) for k, g in enumerate(gaps)),
                  "trial %d: eigenvalues are the roots of q (coefficient gaps %s)", n, gaps)


def _suite_inverse(res: SuiteResult, trials: int, seed: int, tol: float) -> None:
    rng = random.Random(seed)
    for n in range(trials):
        a = _mixed(rng)
        fa = oracle.fvec(a)
        den, x = oracle.scaled_mp_inverse(fa)  # pinv(a) = x / den
        ax, xa = oracle.fmul(fa, x), oracle.fmul(x, fa)
        res.check(oracle.fmul(ax, fa) == _times(den, fa), "trial %d: a x a = a", n)
        res.check(oracle.fmul(xa, x) == _times(den, x), "trial %d: x a x = x", n)
        res.check(oracle.fprime(ax) == ax and oracle.fprime(xa) == xa,
                  "trial %d: prime-symmetry of a x and x a", n)

        mp = mp_inverse(a, tol)
        want = [v / den for v in x]
        kind = (MPKind.ZERO if not any(fa) else MPKind.INVERTIBLE if oracle.ffunctionals(fa).P
                else MPKind.SINGULAR_NONZERO)
        gap = math.hypot(*(u - v for u, v in zip(mp.pinv.coeffs, want)))
        res.check(mp.kind == kind and _within(gap, tol, math.hypot(*want)),
                  "trial %d: mp_inverse vs the exact inverse (kind %s, exact %s, gap %g)",
                  n, mp.kind.value, kind.value, gap)
        lam = rng.choice([2, 4, -2, 0.5, -0.5])
        scaled = mp_inverse(lam * a, tol).pinv
        res.check(scaled.isclose(mp.pinv / lam, tol), "trial %d: pinv scaling in 1/lambda", n)


def _suite_solver(res: SuiteResult, trials: int, seed: int, tol: float) -> None:
    rng = random.Random(seed)
    for n in range(trials):
        a, b = _mixed(rng), _mixed(rng)
        if rng.randrange(2):
            d = a * random_multivector(rng, -3, 3) * b
        else:
            d = random_multivector(rng)
        sol = solve_axb(a, b, d, tol)

        system = oracle.matmul(oracle.fleft_matrix(a), oracle.fright_matrix(b))
        exact = oracle.exact_solve(system, oracle.fvec(d))
        res.check(sol.solvable == exact.consistent,
                  "trial %d: solvable flag vs exact solve", n)
        res.check(sol.dim == len(exact.nullspace),
                  "trial %d: homogeneous dimension %s vs exact %s", n, sol.dim, len(exact.nullspace))
        hb = [h.coeffs for h in sol.hom_basis]
        # a fold from 0.0, as sum adds floats up to Python 3.11; from 3.12 on
        # sum compensates, and the verdict near tol would depend on the Python
        gram = max((abs(reduce(add, map(mul, u, v), 0.0) - (i == j)) for i, u in enumerate(hb)
                    for j, v in enumerate(hb)), default=0.0)
        res.check(all(_within((a * h * b).norm(), tol, a.norm() * b.norm()) for h in sol.hom_basis)
                  and _within(gram, tol, 1.0),
                  "trial %d: homogeneous basis solves a*x*b = 0 and is orthonormal", n)

        if not a.is_singular(tol) and not b.is_singular(tol):
            res.check(sol.dim == 0 and sol.solvable
                      and sol.particular.isclose(inverse(a, tol) * d * inverse(b, tol), tol),
                      "trial %d: invertible fast path", n)


def _suite_similarity(res: SuiteResult, trials: int, seed: int, tol: float) -> None:
    rng = random.Random(seed)
    for n in range(trials):
        a = random_multivector(rng)
        q = random_invertible(rng, tol)
        cm = conjugation_matrix(q, tol)
        # rows and columns 0 and 7 are those of the identity
        flat = max(abs(x - (i == j)) for i, row in enumerate(cm.full)
                   for j, x in enumerate(row) if i in (0, 7) or j in (0, 7))
        res.check(_within(flat, tol, max(abs(x) for row in cm.full for x in row)),
                  "trial %d: conjugation matrix block structure (off-block %g)", n, flat)
        det = _det(cm.block)  # det L(q) det R(1/q) = P^2 / P^2, dimensionless
        res.check(_within(det - 1.0, tol, 1.0),
                  "trial %d: central block has det 1 (det - 1 = %g)", n, det - 1.0)

        b = conjugate_by(q, a, tol)
        verdict = is_similar(a, b, tol)
        w = verdict.witness
        res.check(verdict.similar and w is not None and not w.is_singular(tol)
                  and (w * a).isclose(b * w, tol),
                  "trial %d: conjugated pair classified with verified witness", n)

        if not a.is_central(tol):
            bumped = Multivector([b.coeffs[0] + 1.0] + list(b.coeffs[1:]))
            res.check(is_similar(a, bumped, tol).reason == SimilarityReason.CRE_MISMATCH,
                      "trial %d: central-part mismatch reason", n)


def _suite_oracle(res: SuiteResult, trials: int, seed: int, tol: float) -> None:
    rng = random.Random(seed)
    for n in range(trials):
        a = oracle.fleft_matrix(oracle.fvec(_mixed(rng)))
        bvec = _randints(rng, -5, 5)
        sol = oracle.exact_solve(a, bvec)
        if sol.consistent:
            res.check(oracle.mat_vec(a, sol.particular) == bvec,
                      "trial %d: particular solution solves the system", n)
        res.check(all(oracle.mat_vec(a, v) == [0] * 8 for v in sol.nullspace),
                  "trial %d: nullspace vectors annihilate", n)
        res.check(len(sol.nullspace) == 8 - oracle.rank(a), "trial %d: nullity vs rank", n)


_SUITES = (
    ("multivector", _suite_multivector),
    ("matrix-rep", _suite_matrix_rep),
    ("inverse", _suite_inverse),
    ("solver", _suite_solver),
    ("similarity", _suite_similarity),
    ("oracle", _suite_oracle),
)


def run_all(trials: int = 100, seed: int = 0, tol: float = DEFAULT_TOL) -> list[SuiteResult]:
    """Run every suite at the given trial count; deterministic in ``seed``.

    An exception raised inside a suite ends that suite only, as one more
    failed check that names the exception.  Each result's ``seconds`` is
    the suite's wall time.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_tol(tol)  # a bad tol is a usage error, not a failed check per suite
    results = []
    for k, (name, suite) in enumerate(_SUITES):
        res, start = SuiteResult(name), time.perf_counter()
        try:
            suite(res, trials, seed + 1000 * k, tol)
        except Exception as exc:  # any error inside a suite is a failed check
            res.failed += 1
            res.messages.append(f"raised {type(exc).__name__}: {exc}")
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
