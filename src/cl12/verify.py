"""Randomized cross-check suites pairing every closed form with the oracle.

Each suite draws integer-coefficient inputs, evaluates the library path in
floats (exact at this scale) and the corresponding statement in exact
rationals through :mod:`cl12.oracle`, and tallies per-check pass/fail
counts.  The CLI ``verify`` command is a thin shell over :func:`run_all`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import oracle
from .inverse import inverse, mp_inverse
from .matrep import K8, S8, left_matrix, right_matrix, vectorize
from .multivector import BASIS, DEFAULT_TOL, MUL_SIGN, Multivector, _within, eigenvalues
from .similarity import (
    SimilarityReason,
    conjugate_by,
    conjugation_matrix,
    is_similar,
    witness_candidates,
)
from .solver import solve_axb

__all__ = ["SuiteResult", "run_all", "random_multivector", "random_invertible", "random_singular"]


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# -- input generators -------------------------------------------------------


def random_multivector(rng: random.Random, lo: int = -5, hi: int = 5) -> Multivector:
    return Multivector([rng.randint(lo, hi) for _ in range(8)])


def random_nonzero(rng: random.Random) -> Multivector:
    while True:
        a = random_multivector(rng)
        if not a.is_zero():
            return a


def random_invertible(rng: random.Random, tol: float = DEFAULT_TOL) -> Multivector:
    while True:
        a = random_multivector(rng)
        if not a.is_singular(tol):
            return a


def random_singular(rng: random.Random) -> Multivector:
    # P is multiplicative, so multiplying a singular seed by anything stays
    # singular; both one-sided factors appear in the wild, use both.
    seeds = (
        Multivector((0, 1, 1, 0, 0, 0, 0, 0)),  # e1 + e2
        Multivector((1, 1, 0, 0, 0, 0, 0, 0)),  # 1 + e1
    )
    while True:
        y = random_multivector(rng, -3, 3)
        a = seeds[rng.randrange(2)] * y if rng.randrange(2) else y * seeds[rng.randrange(2)]
        if not a.is_zero():
            return a


def _mixed(rng: random.Random) -> Multivector:
    return random_singular(rng) if rng.randrange(2) else random_multivector(rng)


def _feq(a: Multivector, b) -> bool:
    return oracle.fvec(a) == oracle.fvec(b)


# -- suites -----------------------------------------------------------------


def _suite_multivector(trials: int, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("multivector")
    rng = random.Random(seed)

    res.check(
        [list(r) for r in MUL_SIGN] == oracle.GEN_SIGN
        and all(oracle.GEN_INDEX[i][j] == i ^ j for i in range(8) for j in range(8)),
        "blade table (signs, XOR index rule) disagrees with the generator-derived one",
    )

    for n in range(trials):
        a, b, c = (random_multivector(rng) for _ in range(3))
        fa, fb = oracle.fvec(a), oracle.fvec(b)
        res.check(_feq((a * b) * c, oracle.fmul(oracle.fmul(fa, fb), oracle.fvec(c))),
                  f"trial {n}: product disagrees with rational mirror")
        res.check((a * b) * c == a * (b * c), f"trial {n}: associativity")
        res.check(a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c,
                  f"trial {n}: distributivity")
        res.check((a * b).conjugate() == b.conjugate() * a.conjugate(),
                  f"trial {n}: conjugate antihomomorphism")
        res.check((a * b).prime() == b.prime() * a.prime(),
                  f"trial {n}: prime antihomomorphism")

        f = oracle.ffunctionals(fa)
        g = oracle.ffunctionals(fb)
        fab = oracle.ffunctionals(oracle.fmul(fa, fb))
        central = (f.N, 0, 0, 0, 0, 0, 0, 2 * f.T)
        res.check(oracle.fmul(fa, oracle.fconjugate(fa)) == oracle.fvec(central)
                  and oracle.fmul(oracle.fconjugate(fa), fa) == oracle.fvec(central),
                  f"trial {n}: a * conj(a) != N + 2T e7")
        res.check(fab.T == f.N * g.T + g.N * f.T, f"trial {n}: T(ab) identity")
        res.check(fab.N == f.N * g.N - 4 * f.T * g.T, f"trial {n}: N(ab) identity")
        res.check(fab.P == f.P * g.P, f"trial {n}: P multiplicativity")
        anti = (f.N, 0, 0, 0, 0, 0, 0, -2 * f.T)
        res.check(oracle.fmul(oracle.fmul(fa, oracle.fconjugate(fa)), anti)
                  == oracle.fvec((f.P, 0, 0, 0, 0, 0, 0, 0)),
                  f"trial {n}: quartic form factorization")
        res.check(oracle.fcre(oracle.fmul(fa, fb)) == oracle.fcre(oracle.fmul(fb, fa)),
                  f"trial {n}: central part of ab vs ba")
        res.check(
            oracle.ffunctionals(oracle.fconjugate(fa))[:2] == (f.N, f.T)
            and oracle.ffunctionals(oracle.fprime(fa))[:2] == (f.N, -f.T),
            f"trial {n}: N, T under involutions",
        )

        s = oracle.fvec(random_singular(rng))
        sf = oracle.ffunctionals(s)
        total = sum(x * x for x in s)
        expansion = (total, 2 * sf.T1, 0, 2 * sf.T3, 0, 2 * sf.T5, 0, 0)
        res.check(oracle.fmul(oracle.fprime(s), s) == oracle.fvec(expansion),
                  f"trial {n}: prime(a) * a expansion on singular input")
        res.check(sf.T1 ** 2 + sf.T3 ** 2 + sf.T5 ** 2 == sf.K ** 2,
                  f"trial {n}: T1^2 + T3^2 + T5^2 = K^2 on singular input")
        res.check(sf.K > 0, f"trial {n}: K > 0 for singular nonzero input")

        probe = rng.choice([a, Multivector((rng.randint(-5, 5), 0, 0, 0, 0, 0, 0, rng.randint(-5, 5)))])
        commutes = all(probe * e == e * probe for e in BASIS[1:7])
        res.check(probe.is_central(0.0) == commutes, f"trial {n}: centrality vs commutation")
    return res


def _suite_matrix_rep(trials: int, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("matrix-rep")
    rng = random.Random(seed)
    for n in range(trials):
        a, b = random_multivector(rng), random_multivector(rng)
        la, lb = left_matrix(a), left_matrix(b)
        ra, rb = right_matrix(a), right_matrix(b)
        la_exact, ra_exact = oracle.fleft_matrix(a), oracle.fright_matrix(a)
        res.check(np.array_equal(la, np.array(la_exact, dtype=float))
                  and np.array_equal(ra, np.array(ra_exact, dtype=float)),
                  f"trial {n}: generated left and right matrices vs the oracle's")
        res.check(np.array_equal(left_matrix(a * b), la @ lb), f"trial {n}: L(ab) = L(a) L(b)")
        res.check(np.array_equal(right_matrix(a * b), rb @ ra), f"trial {n}: R(ab) = R(b) R(a)")
        res.check(np.array_equal(la @ rb, rb @ la), f"trial {n}: L and R commute")
        res.check(np.array_equal(left_matrix(a + b), la + lb)
                  and np.array_equal(left_matrix(3 * a), 3 * la),
                  f"trial {n}: linearity of L")
        res.check(np.array_equal(ra, K8 @ la.T @ K8), f"trial {n}: R from L by K8 conjugation")
        res.check(np.array_equal(left_matrix(a.prime()), la.T)
                  and np.array_equal(right_matrix(a.prime()), ra.T),
                  f"trial {n}: prime transports to transpose")
        res.check(np.array_equal(left_matrix(a.conjugate()), S8 @ la.T @ S8)
                  and np.array_equal(right_matrix(a.conjugate()), S8 @ ra.T @ S8),
                  f"trial {n}: conjugate transports via S8")
        res.check((a == b) == np.array_equal(left_matrix(a - b), np.zeros((8, 8))),
                  f"trial {n}: faithfulness")
        res.check(np.array_equal(la @ vectorize(b), vectorize(a * b)),
                  f"trial {n}: L acts as left product")
        res.check(np.array_equal(ra @ vectorize(b), vectorize(b * a)),
                  f"trial {n}: R acts as right product")

        # exact: det L(a) is the constant coefficient of its characteristic
        # polynomial, and P is a whole double on these integer inputs
        f = a.functionals()
        pol = oracle.char_poly(la_exact)
        det_r = oracle.exact_det(ra_exact)
        res.check(pol[-1] == det_r == f.P * f.P,
                  f"trial {n}: det = P^2 (det L={pol[-1]}, det R={det_r}, P^2={f.P * f.P:g})")

        spectrum = eigenvalues(a)
        c = a.coeffs
        quads = [complex(c[0], c[7]), complex(c[0], -c[7])]
        betas = [complex(f.N, 2 * f.T), complex(f.N, -2 * f.T)]
        pol_f = [float(x) for x in pol]
        for lam in spectrum.values:
            q_res = min(abs(lam * lam - 2 * lam * al + be) for al, be in zip(quads, betas))
            res.check(q_res <= tol * (1.0 + abs(lam) ** 2),
                      f"trial {n}: eigenvalue quadratic residual {q_res:g}")
            p_res = abs(np.polyval(pol_f, lam))
            res.check(p_res <= tol * (1.0 + abs(lam) ** 8),
                      f"trial {n}: eigenvalue char-poly residual {p_res:g}")
    return res


def _suite_inverse(trials: int, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("inverse")
    rng = random.Random(seed)
    for n in range(trials):
        a = _mixed(rng)
        fa = oracle.fvec(a)
        x = oracle.fmp_inverse(fa)
        ax, xa = oracle.fmul(fa, x), oracle.fmul(x, fa)
        res.check(oracle.fmul(ax, fa) == fa, f"trial {n}: a x a = a")
        res.check(oracle.fmul(xa, x) == x, f"trial {n}: x a x = x")
        res.check(oracle.fprime(ax) == ax and oracle.fprime(xa) == xa,
                  f"trial {n}: prime-symmetry of a x and x a")

        # any perturbation must break at least one of the four conditions
        broke = 0
        for _ in range(10):
            delta = oracle.fvec(random_nonzero(rng))
            cand = oracle.fadd(x, delta)
            ca, ac = oracle.fmul(cand, fa), oracle.fmul(fa, cand)
            if (oracle.fmul(ac, fa) != fa or oracle.fmul(ca, cand) != cand
                    or oracle.fprime(ac) != ac or oracle.fprime(ca) != ca):
                broke += 1
        res.check(broke == 10, f"trial {n}: uniqueness perturbations ({broke}/10 broke)")

        la = oracle.fleft_matrix(fa)
        res.check(oracle.fleft_matrix(x) == oracle.exact_pinv(la),
                  f"trial {n}: L(pinv(a)) = pinv(L(a))")
        res.check(oracle.fright_matrix(x) == oracle.exact_pinv(oracle.fright_matrix(fa)),
                  f"trial {n}: R(pinv(a)) = pinv(R(a))")
        res.check(oracle.rank(la) == oracle.rank(oracle.matmul(oracle.transpose(la), la)),
                  f"trial {n}: rank(L) = rank(L^T L)")

        mp = mp_inverse(a, tol)
        if not a.is_singular(tol):
            res.check(mp.pinv == inverse(a, tol), f"trial {n}: pinv = inverse when P != 0")
        lam = rng.choice([2, 4, -2, 0.5, -0.5])
        scaled = mp_inverse(lam * a, tol).pinv
        res.check(scaled.isclose(mp.pinv / lam, tol), f"trial {n}: pinv scaling in 1/lambda")
    return res


def _suite_solver(trials: int, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("solver")
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
                  f"trial {n}: solvable flag vs exact solve")
        res.check(sol.dim == len(exact.nullspace),
                  f"trial {n}: homogeneous dimension {sol.dim} vs exact {len(exact.nullspace)}")

        p = mp_inverse(a, tol).pinv
        q = mp_inverse(b, tol).pinv
        left, right = p * a, b * q
        bound = tol * (1.0 + d.norm())
        if sol.solvable:
            res.check((a * sol.particular * b - d).norm() <= bound,
                      f"trial {n}: particular residual")
            y = random_multivector(rng, -3, 3)
            x = sol.particular + (y - left * y * right)
            res.check((a * x * b - d).norm() <= bound, f"trial {n}: shifted solution residual")
        y = random_multivector(rng, -3, 3)
        once = y - left * y * right
        twice = once - left * once * right
        res.check(once.isclose(twice, tol), f"trial {n}: projector idempotence")

        if not a.is_singular(tol) and not b.is_singular(tol):
            res.check(sol.dim == 0 and sol.solvable
                      and sol.particular.isclose(inverse(a, tol) * d * inverse(b, tol), tol),
                      f"trial {n}: invertible fast path")
        sa, sb = random_singular(rng), random_singular(rng)
        fa, fb, fd = oracle.fvec(sa), oracle.fvec(sb), oracle.fvec(d)
        ka = oracle.ffunctionals(fa).K
        kb = oracle.ffunctionals(fb).K
        direct = oracle.fscale(
            Fraction(1, 16) / (ka * kb),
            oracle.fmul(oracle.fmul(oracle.fprime(fa), fd), oracle.fprime(fb)),
        )
        via_pinv = oracle.fmul(oracle.fmul(oracle.fmp_inverse(fa), fd), oracle.fmp_inverse(fb))
        res.check(direct == via_pinv, f"trial {n}: explicit singular-case denominators")
    return res


def _suite_similarity(trials: int, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("similarity")
    rng = random.Random(seed)
    for n in range(trials):
        a = random_multivector(rng)
        q = random_invertible(rng, tol)
        x = random_multivector(rng)
        conj = conjugate_by(q, x, tol)
        res.check(conj.cre().isclose(x.cre(), tol), f"trial {n}: conjugation fixes central part")
        fx, fc = x.functionals(), conj.functionals()
        quad = max(x.norm(), conj.norm()) ** 2
        res.check(_within(fx.N - fc.N, tol, quad) and _within(fx.T - fc.T, tol, quad),
                  f"trial {n}: conjugation preserves N and T")
        res.check(conjugate_by(q, x, tol).isclose(conjugate_by(2 * q, x, tol), tol),
                  f"trial {n}: conjugation ignores scaling of q")

        cm = conjugation_matrix(q, tol)
        ident = np.eye(8)
        edge = [(0, slice(None)), (7, slice(None)), (slice(None), 0), (slice(None), 7)]
        flat = max(np.max(np.abs(cm.full[idx] - ident[idx])) for idx in edge)
        res.check(_within(flat, tol, float(np.max(np.abs(cm.full)))),
                  f"trial {n}: conjugation matrix block structure (off-block {flat:g})")
        res.check(abs(np.linalg.det(cm.block)) > 1e-6, f"trial {n}: central block invertible")

        b = conjugate_by(q, a, tol)
        verdict = is_similar(a, b, tol)
        wit_ok = (
            verdict.similar
            and verdict.witness is not None
            and not verdict.witness.is_singular(tol)
            and (verdict.witness * a).isclose(b * verdict.witness, tol)
        )
        res.check(wit_ok, f"trial {n}: conjugated pair classified with verified witness")

        if not a.is_central(tol):
            bumped = Multivector([b.coeffs[0] + 1.0] + list(b.coeffs[1:]))
            res.check(is_similar(a, bumped, tol).reason == SimilarityReason.CRE_MISMATCH,
                      f"trial {n}: central-part mismatch reason")

        ca = a.cim()
        if not ca.is_singular(tol):
            res.check(any(not w.is_singular(tol) for w in witness_candidates(a, b)),
                      f"trial {n}: one of the four witness candidates invertible")
    return res


def _suite_oracle(trials: int, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("oracle")
    rng = random.Random(seed)
    for n in range(trials):
        a = oracle.fleft_matrix(oracle.fvec(_mixed(rng)))
        x = oracle.exact_pinv(a)
        ax, xa = oracle.matmul(a, x), oracle.matmul(x, a)
        res.check(oracle.matmul(ax, a) == a, f"trial {n}: A X A = A")
        res.check(oracle.matmul(xa, x) == x, f"trial {n}: X A X = X")
        res.check(ax == oracle.transpose(ax) and xa == oracle.transpose(xa),
                  f"trial {n}: A X and X A symmetric")
        res.check(oracle.exact_pinv(oracle.transpose(a)) == oracle.transpose(x),
                  f"trial {n}: pinv commutes with transpose")

        bvec = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
        sol = oracle.exact_solve(a, bvec)
        res.check(sol.consistent == (oracle.mat_vec(oracle.matmul(a, x), bvec) == bvec),
                  f"trial {n}: consistency criterion A A+ b = b")
        if sol.consistent:
            res.check(oracle.mat_vec(a, sol.particular) == bvec,
                      f"trial {n}: particular solution solves the system")
        res.check(all(oracle.mat_vec(a, v) == [Fraction(0)] * 8 for v in sol.nullspace),
                  f"trial {n}: nullspace vectors annihilate")
        res.check(len(sol.nullspace) == 8 - oracle.rank(a), f"trial {n}: nullity vs rank")

        pol = oracle.char_poly(a)
        trace = sum(a[i][i] for i in range(8))
        res.check(pol[0] == 1 and pol[1] == -trace, f"trial {n}: leading and trace coefficients")
        res.check(pol[-1] == oracle.exact_det(a), f"trial {n}: constant coefficient vs Bareiss det")
    return res


_SUITES = (
    _suite_multivector,
    _suite_matrix_rep,
    _suite_inverse,
    _suite_solver,
    _suite_similarity,
    _suite_oracle,
)


def run_all(trials: int = 100, seed: int = 0, tol: float = DEFAULT_TOL) -> list[SuiteResult]:
    """Run every suite at the given trial count; deterministic in ``seed``."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return [suite(trials, seed + 1000 * k, tol) for k, suite in enumerate(_SUITES)]
