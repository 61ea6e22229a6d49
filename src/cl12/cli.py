"""Command line front end.

Subcommands: eval, solve, similar, rep, eig, det, verify.  Multivector
literals follow ``term (('+'|'-') term)*`` with ``term`` a decimal
coefficient, a basis symbol e0..e7, or both (``2.5 e3``); a JSON array of
eight numbers is accepted as well.  ``2e3`` denotes 2 * e3; scientific
notation needs a signed exponent (``1e-9``).  ``eval`` additionally
supports ``*`` (binding tighter than ``+`` and ``-``), parentheses and
the unary functions conj(), prime(), cre(), cim(), inv() and pinv().
Every option is spelled ``--name`` (or an unambiguous prefix of it)
except ``-h``, so any other argument that starts with a single ``-`` is
a literal such as ``-e7``.  ``rep`` prints L(a) or R(a), whose entries
are coefficients of a with a sign, and ``det`` is the exact determinant
of L(a), taken in the oracle and rounded once.

Exit codes: 0 success, 1 domain error (singular input to inv(),
unsolvable system under --strict, failed verification, a similarity
witness that is not invertible within --tol or misses q*a = b*q to that
tolerance, a value that leaves the double range while the command
runs), 2 parse or usage error (a literal number that
is not a finite double, such as ``1e+999`` or a JSON ``Infinity``, is a
parse error; an operand the solve form does not take, such as ``--b``
for ``solve ax``, or one it needs and lacks is a usage error).

Each command imports what it needs beyond the package's eager modules
(multivector and inverse) when it runs: solve the solver, similar the
similarity module, rep the matrix representation, det the oracle and
verify the suites.  Every command runs in a fresh process, which compiles
only those modules.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .inverse import SingularElement, inverse, mp_inverse
from .multivector import (
    DEFAULT_TOL,
    Multivector,
    _DIGITS,
    _check_tol,
    _ldexp,
    _make,
    _reduce,
    eigenvalues,
    format_multivector,
)

__all__ = ["ParseError", "parse_multivector", "main"]


class ParseError(ValueError):
    """Bad multivector or expression input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# '2e3' means 2 * e3; an exponent is only an exponent with an explicit
# sign ('1e-13'), which is how the 12-digit formatter always writes them
_NUM_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]\d+)?")
_NAME_RE = re.compile(r"[A-Za-z]+\d*")
# the unary functions of eval: name -> f(argument, tol)
_FUNCTIONS = {
    "conj": lambda a, tol: a.conjugate(),
    "prime": lambda a, tol: a.prime(),
    "cre": lambda a, tol: a.cre(),
    "cim": lambda a, tol: a.cim(),
    "inv": inverse,
    "pinv": lambda a, tol: mp_inverse(a, tol).pinv,
}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(f"number {m.group()} is not a finite double", i)
            tokens.append(("num", value, i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            name = m.group()
            if re.fullmatch(r"e[0-7]", name):
                tokens.append(("basis", int(name[1]), i))
            elif name in _FUNCTIONS:
                tokens.append(("func", name, i))
            else:
                raise ParseError(f"unknown symbol {name!r}", i)
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := ['-'] atom."""

    def __init__(self, text: str, tol: float = DEFAULT_TOL):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.tol = tol

    def _peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> tuple[str, object, int]:
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> Multivector:
        value = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return value

    def _expr(self) -> Multivector:
        value = self._term()
        while self._peek()[0] in "+-":
            op = self._next()[0]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Multivector:
        value = self._factor()
        while self._peek()[0] == "*":
            self._next()
            value = value * self._factor()
        return value

    def _factor(self) -> Multivector:
        tok = self._peek()
        if tok[0] == "-":
            self._next()
            return -self._factor()
        if tok[0] == "+":
            self._next()
            return self._factor()
        return self._atom()

    def _atom(self) -> Multivector:
        kind, value, pos = self._next()
        if kind == "num":
            if self._peek()[0] == "basis":
                _, t, _ = self._next()
                return float(value) * Multivector.basis(int(t))
            return Multivector.scalar(float(value))
        if kind == "basis":
            return Multivector.basis(int(value))
        if kind == "func":
            self._expect("(")
            arg = self._expr()
            self._expect(")")
            return _FUNCTIONS[value](arg, self.tol)
        if kind == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        raise ParseError("expected a number, basis symbol or function", pos)


def parse_multivector(text: str, tol: float = DEFAULT_TOL) -> Multivector:
    """Parse a literal: JSON array of 8 numbers, or the sum grammar."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped, parse_int=float)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON literal: {exc.msg}", exc.pos) from None
        # parse_int=float reads every JSON number as a float, so this test
        # also refuses true and false (bool is a subclass of int)
        if not isinstance(data, list) or len(data) != 8 \
                or not all(type(x) is float for x in data):
            raise ParseError("JSON literal must be an array of 8 numbers", 0)
        # the array is flat, so its runs of non-separators are its 8 numbers
        for x, m in zip(data, re.finditer(r"[^\s\[\],]+", stripped)):
            if not math.isfinite(x):  # Infinity, NaN, 1e999
                raise ParseError(f"number {m.group()} is not a finite double", m.start())
        return Multivector(data)
    return _Parser(stripped, tol).parse()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _g(x: float) -> str:
    s = f"{x:.{_DIGITS}g}"
    return "0" if s == "-0" else s


def _format_complex(z: complex) -> str:
    re_, im = z.real, z.imag
    if im == 0:
        return _g(re_)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{_g(im)}i"
    if re_ == 0:
        return imag
    return f"{_g(re_)}{'+' if im > 0 else '-'}{imag.lstrip('-')}"


def _finite(x):
    """``x`` with every float that is not finite replaced by None, and -0.0
    by 0.0 (as ``_g`` prints it)."""
    if isinstance(x, float):
        return x + 0.0 if x - x == 0.0 else None  # inf - inf and nan - nan are nan
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def _print_json(payload: dict) -> None:
    """Print RFC 8259 JSON, which has no Infinity or NaN: a number past the
    double range (N, P or det of a huge element) prints as null."""
    print(json.dumps(_finite(payload), allow_nan=False))


def _mv_json(m: Multivector) -> dict:
    f = m.functionals()
    return {"coeffs": list(m.coeffs), "N": f.N, "T": f.T, "P": f.P}


def _print_matrix(m) -> None:
    cells = [[_g(v) for v in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print(" ".join(c.rjust(width) for c in row))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    result = parse_multivector(args.expr, args.tol)
    if args.json:
        _print_json(_mv_json(result))
        return 0
    f = result.functionals()
    print(format_multivector(result))
    print(f"N = {_g(f.N)}  T = {_g(f.T)}  P = {_g(f.P)}")
    return 0


def _cmd_solve(args) -> int:
    from .solver import solve_axb

    # a*x = d and x*b = d are a*x*b = d with e0 on the side the form omits
    texts = [getattr(args, side) for side in "ab"]
    for side, text in zip("ab", texts):
        if (side in args.kind) == (text is None):  # missing, or not taken
            args.usage_error(f"{args.kind} {'needs' if text is None else 'takes no'} --{side}")
    d = parse_multivector(args.d, args.tol)
    operands = [parse_multivector("e0" if text is None else text, args.tol) for text in texts]
    sol = solve_axb(*operands, d, args.tol)

    if args.json:
        _print_json({
            "solvable": sol.solvable,
            "particular": _mv_json(sol.particular) if sol.particular is not None else None,
            "hom_basis": [_mv_json(h) for h in sol.hom_basis],
            "dim": sol.dim,
            "residual": sol.residual,
        })
    else:
        print(f"solvable: {'yes' if sol.solvable else 'no'}")
        if sol.particular is not None:
            print(f"particular: {format_multivector(sol.particular)}")
        print(f"homogeneous dimension: {sol.dim}")
        for h in sol.hom_basis:
            print(f"  {format_multivector(h)}")
        print(f"residual: {_g(sol.residual)}")
    if args.strict and not sol.solvable:
        return 1
    return 0


def _cmd_similar(args) -> int:
    from .similarity import _reduced_pair, is_similar

    a = parse_multivector(args.a, args.tol)
    b = parse_multivector(args.b, args.tol)
    verdict = is_similar(a, b, args.tol)
    if args.json:
        _print_json({
            "similar": verdict.similar,
            "reason": verdict.reason.value,
            "witness": _mv_json(verdict.witness) if verdict.witness is not None else None,
        })
        return 0
    print(f"similar: {'yes' if verdict.similar else 'no'}")
    print(f"reason: {verdict.reason.value}")
    if verdict.witness is not None:
        # computed on the pair rescaled by is_similar's pair rule and on the
        # witness reduced on its own, so no product leaves the double range
        a, b, e, _, _ = _reduced_pair(a, b, a.norm(), b.norm())
        cq, eq, _ = _reduce(verdict.witness.coeffs)
        q = _make(cq)
        residual = _ldexp((q * a - b * q).norm(), e + eq)  # back to the input's scale
        print(f"witness: {format_multivector(verdict.witness)}")
        print(f"witness residual: {_g(residual)}")
    return 0


def _cmd_rep(args) -> int:
    from .matrep import left_matrix, right_matrix

    a = parse_multivector(args.a, args.tol)
    m = (left_matrix if args.side == "left" else right_matrix)(a)
    if args.json:
        _print_json({"side": args.side, "matrix": m})
    else:
        _print_matrix(m)
    return 0


def _cmd_eig(args) -> int:
    spectrum = eigenvalues(parse_multivector(args.a, args.tol))
    if args.json:
        _print_json({
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in spectrum.values],
            "multiplicity": spectrum.multiplicity,
        })
    else:
        listing = ", ".join(_format_complex(z) for z in spectrum.values)
        print(f"{listing}  (each with algebraic multiplicity {spectrum.multiplicity})")
    return 0


def _cmd_det(args) -> int:
    from .oracle import exact_det, fleft_matrix

    a = parse_multivector(args.a, args.tol)
    # the exact determinant, rounded once; it is P^2 >= 0, so past the
    # double range it is +inf
    try:
        det = float(exact_det(fleft_matrix(a)))
    except OverflowError:
        det = math.inf
    p = a.functionals().P
    if args.json:
        _print_json({"det": det, "P": p, "P_squared": p * p})
    else:
        print(f"det = {_g(det)}  (P = {_g(p)}, P^2 = {_g(p * p)})")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(trials=args.trials, seed=args.seed, tol=args.tol)
    ok = all(r.ok for r in results)
    if args.json:
        _print_json({
            "ok": ok,
            "suites": [{"name": r.name, "passed": r.passed, "failed": r.failed, "seconds": r.seconds}
                       for r in results],
        })
    else:
        for r in results:
            print(f"{r.name}: {r.passed} passed, {r.failed} failed")
            for msg in r.messages:
                print(f"  {msg}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    try:
        return _check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


_COMMANDS = ("eval", "solve", "similar", "rep", "eig", "det", "verify")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` the parser that
    holds only that command's subparser.  Its usage line names every
    command still, so the two parsers print the same for that command."""
    parser = argparse.ArgumentParser(prog="cl12", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine readable output")
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="relative tolerance for singularity and comparisons, "
                             "in [0, 1) (default 1e-9)")
    # a metavar would rename "argument command" in the full parser's errors
    metavar = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)

    if command in (None, "eval"):
        p = sub.add_parser("eval", parents=[common], help="evaluate a multivector expression")
        p.add_argument("expr")
        p.set_defaults(func=_cmd_eval)

    if command in (None, "solve"):
        p = sub.add_parser("solve", parents=[common], help="solve a*x*b = d, a*x = d or x*b = d")
        p.add_argument("kind", choices=["axb", "ax", "xb"])
        p.add_argument("--a")
        p.add_argument("--b")
        p.add_argument("--d", required=True)
        p.add_argument("--strict", action="store_true", help="exit 1 when unsolvable")
        # argparse cannot say which operands a form takes; _cmd_solve checks,
        # and reports a mismatch as this parser reports its own usage errors
        p.set_defaults(func=_cmd_solve, usage_error=p.error)

    if command in (None, "similar"):
        p = sub.add_parser("similar", parents=[common], help="decide similarity, produce a witness")
        p.add_argument("a")
        p.add_argument("b")
        p.set_defaults(func=_cmd_similar)

    if command in (None, "rep"):
        p = sub.add_parser("rep", parents=[common], help="print a representation matrix")
        p.add_argument("a")
        p.add_argument("--side", choices=["left", "right"], default="left")
        p.set_defaults(func=_cmd_rep)

    if command in (None, "eig"):
        p = sub.add_parser("eig", parents=[common], help="closed-form eigenvalues")
        p.add_argument("a")
        p.set_defaults(func=_cmd_eig)

    if command in (None, "det"):
        p = sub.add_parser("det", parents=[common], help="determinant of the left matrix")
        p.add_argument("a")
        p.set_defaults(func=_cmd_det)

    if command in (None, "verify"):
        p = sub.add_parser("verify", parents=[common], help="run the randomized cross-check suites")
        p.add_argument("--trials", type=_positive_int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_cmd_verify)
    return parser


def _escape_negatives(argv: list[str]) -> list[str]:
    # Every option is spelled --name except -h, so any other token that
    # starts with a single '-' is a literal such as "-e7"; a leading space
    # keeps argparse from reading it as an option and the literal parser
    # strips it.
    return [" " + t if t[:1] == "-" and t[:2] != "--" and t != "-h" else t for t in argv]


def main(argv: list[str] | None = None) -> int:
    argv = _escape_negatives(list(sys.argv[1:]) if argv is None else list(argv))
    # a run names its command first, and needs only that command's parser;
    # -h, an unknown command or none gets the parser of every command
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SingularElement, ValueError) as exc:
        # a literal that is not a finite double is a ParseError, so this is a
        # value that left the double range while the command ran (Multivector
        # refuses a coefficient that is not finite)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
