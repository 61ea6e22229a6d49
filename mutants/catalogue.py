"""The mutant catalogue: one-line edits of the source that some check must catch.

Each entry names the file, an exact old text that occurs once in it, the
new text, where the mutation comes from, and the tier-1 tests that catch
it when no ``verify`` check does.  An edit keeps the line count, so the
line of every ``verify`` check stays where it was, and it changes
behaviour on some input: an equivalent mutant can never be caught.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the repository
    old: str
    new: str
    origin: str
    tests: tuple[str, ...] = ()  # tier-1 test ids, run on the mutated copy


ORACLE, VERIFY = "src/cl12/oracle.py", "src/cl12/verify.py"
INVERSE, MULTIVECTOR = "src/cl12/inverse.py", "src/cl12/multivector.py"
MATREP = "src/cl12/matrep.py"
RAN_BY_UNIQUENESS = "a function the deleted uniqueness-perturbation check ran"

MUTANTS = (
    # every function the inverse suite's uniqueness-perturbation check ran
    Mutant("fadd subtracts", ORACLE,
           "tuple(x + y for x, y in zip(fvec(a), fvec(b)))",
           "tuple(x - y for x, y in zip(fvec(a), fvec(b)))",
           RAN_BY_UNIQUENESS, ("tests/test_similarity.py::test_four_candidates_complete_exactly",)),
    Mutant("fmul drops its denominator", ORACLE,
           "return out if den == 1 else tuple(_ratio(x, den) for x in out)",
           "return out",
           RAN_BY_UNIQUENESS, ("tests/test_oracle.py::test_products_match_fraction_reference",)),
    Mutant("generated product takes b*a", ORACLE,
           "else '-'} a{i}*b{j}\")", "else '-'} a{j}*b{i}\")",
           RAN_BY_UNIQUENESS),
    Mutant("generator squares negated", ORACLE,
           "sgn *= _GENERATOR_SQUARES[g]", "sgn *= -_GENERATOR_SQUARES[g]",
           RAN_BY_UNIQUENESS),
    Mutant("fprime keeps c7", ORACLE,
           "return (c[0], c[1], -c[2], c[3], -c[4], c[5], -c[6], -c[7])",
           "return (c[0], c[1], -c[2], c[3], -c[4], c[5], -c[6], c[7])",
           RAN_BY_UNIQUENESS),
    Mutant("fconjugate keeps c3", ORACLE,
           "return (c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], c[7])",
           "return (c[0], -c[1], -c[2], c[3], -c[4], -c[5], -c[6], c[7])",
           RAN_BY_UNIQUENESS + "; CHANGES.md M24"),
    Mutant("ffunctionals T1 with + c4 c5", ORACLE,
           "t1 = c[0] * c[1] - c[2] * c[3] - c[4] * c[5] + c[6] * c[7]",
           "t1 = c[0] * c[1] - c[2] * c[3] + c[4] * c[5] + c[6] * c[7]",
           RAN_BY_UNIQUENESS + "; CHANGES.md M23"),
    Mutant("scaled_mp_inverse drops its scale", ORACLE,
           "return den, num if scale == 1 else tuple(scale * x for x in num)",
           "return den, num",
           RAN_BY_UNIQUENESS,
           ("tests/test_oracle.py::test_scaled_mp_inverse_is_fmp_inverse_over_one_positive_denominator",)),
    Mutant("fvec truncates non-whole floats", ORACLE,
           "if kinds == {float} and all(map(float.is_integer, coeffs)):",
           "if kinds == {float}:",
           RAN_BY_UNIQUENESS, ("tests/test_oracle.py::test_fvec_reads_floats_as_exact_does",)),
    Mutant("verify _times ignores k", VERIFY,
           "return type(x)(k * v for v in x)", "return type(x)(v for v in x)",
           RAN_BY_UNIQUENESS),
    # ROADMAP item 2: the two mutants of mp_inverse's singular branch
    Mutant("singular mp_inverse over 2K", INVERSE,
           "d = 4.0 * (c0 * c0", "d = 2.0 * (c0 * c0",
           "ROADMAP item 2"),
    Mutant("singular mp_inverse with -c1", INVERSE,
           "(c0, c1, -c2, c3, -c4, c5, -c6, -c7)", "(c0, -c1, -c2, c3, -c4, c5, -c6, -c7)",
           "ROADMAP item 2"),
    # ROADMAP item 2: mutations CHANGES.md cites that still apply
    Mutant("P = N^2 + 2T^2", MULTIVECTOR,
           "n * n + 4.0 * t * t", "n * n + 2.0 * t * t",
           "CHANGES.md M10"),
    Mutant("2x2 image with c4 - c5", MULTIVECTOR,
           "complex(c4 + c5, c2 + c3)", "complex(c4 - c5, c2 + c3)",
           "CHANGES.md: solver suite checks the homogeneous basis"),
    Mutant("eigenvalues with N - 2T i", MULTIVECTOR,
           "complex(n, 2.0 * t)", "complex(n, -2.0 * t)",
           "CHANGES.md: eigenvalue root check"),
    Mutant("isclose with an absolute floor", MULTIVECTOR,
           "_within(gap, tol, max(self.norm(), other.norm()))",
           "_within(gap, tol, 1.0 + max(self.norm(), other.norm()))",
           "CHANGES.md: one tolerance rule", ("tests/test_scaling.py::test_scale_repros",)),
    Mutant("is_singular with an absolute floor", MULTIVECTOR,
           "return _within(_ntp(r._c)[2], tol, s * s)",
           "return _within(_ntp(r._c)[2], tol, max(s * s, 1.0))",
           "ROADMAP item 3", ("tests/test_scaling.py::test_scale_repros",)),
    Mutant("T with + c3 c4", MULTIVECTOR,
           "t = c0 * c7 + c2 * c5 - c1 * c6 - c3 * c4",
           "t = c0 * c7 + c2 * c5 - c1 * c6 + c3 * c4",
           "CHANGES.md M04"),
    Mutant("cre keeps c1", MULTIVECTOR,
           "(c[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, c[7])", "(c[0], c[1], 0.0, 0.0, 0.0, 0.0, 0.0, c[7])",
           "CHANGES.md M05"),
    Mutant("prime keeps c7", MULTIVECTOR,
           "(c0, c1, -c2 + 0.0, c3, -c4 + 0.0, c5, -c6 + 0.0, -c7 + 0.0)",
           "(c0, c1, -c2 + 0.0, c3, -c4 + 0.0, c5, -c6 + 0.0, c7)",
           "CHANGES.md M06"),
    Mutant("singular fmp_inverse over 2K", ORACLE,
           "den, num = 4 * f.K, fprime(c)", "den, num = 2 * f.K, fprime(c)",
           "CHANGES.md M12"),
    Mutant("transpose returns its input", ORACLE,
           "return [list(col) for col in zip(*a)]", "return [list(row) for row in a]",
           "CHANGES.md M14"),
    Mutant("echelon pass skips the row below the pivot", ORACLE,
           "range(r + 1 if echelon else 0, nrows)", "range(r + 2 if echelon else 0, nrows)",
           "CHANGES.md: echelon-only rank and det"),
    # mutants aimed at the blade-table facts verify checks once per run
    Mutant("MUL_SIGN[2][4] flipped", MULTIVECTOR,
           "(1, 1, 1, 1, 1, 1, 1, 1),\n    (1, -1, -1, 1, 1, -1, -1, 1),",
           "(1, 1, 1, 1, 1, 1, 1, 1),\n    (1, -1, -1, 1, -1, -1, -1, 1),",
           "CHANGES.md M01"),
    Mutant("MUL_SIGN[4][7] = +1", MULTIVECTOR,
           "(1, -1, -1, 1, 1, -1, -1, 1),\n    (1, -1, -1, 1, -1, 1, 1, -1),",
           "(1, -1, -1, 1, 1, -1, -1, 1),\n    (1, -1, -1, 1, -1, 1, 1, 1),",
           "CHANGES.md: PR 9's mutation table"),
    Mutant("conjugate keeps c3", MULTIVECTOR,
           "(c0, -c1 + 0.0, -c2 + 0.0, -c3 + 0.0,", "(c0, -c1 + 0.0, -c2 + 0.0, c3,",
           "CHANGES.md M03"),
    Mutant("R(e3) negated in the generated right_matrix", MATREP,
           "lambda k, i: (MUL_SIGN[i][k ^ i], k ^ i))",
           "lambda k, i: (MUL_SIGN[i][k ^ i] * (-1 if k ^ i == 3 else 1), k ^ i))",
           "CHANGES.md M07"),
    Mutant("K8[2][2] is +1", MATREP,
           "K8 = _diagonal((1.0, 1.0, -1.0,", "K8 = _diagonal((1.0, 1.0, 1.0,",
           "the deleted matrix-rep check \"R from L by K8 conjugation\""),
    Mutant("S8[7][7] is +1", MATREP,
           "1.0, -1.0, 1.0, -1.0))", "1.0, -1.0, 1.0, 1.0))",
           "CHANGES.md M09"),
)
