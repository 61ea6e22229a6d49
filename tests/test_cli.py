import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cl12
from cl12 import Multivector, e0, e1, e2, e3, e4, e5, e6, e7
from cl12.cli import ParseError, main, parse_multivector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- literal and expression parsing ----------------------------------------


def test_parse_sums():
    assert parse_multivector("1+e1") == e0 + e1
    assert parse_multivector("0.25 e1 - 0.25 e2") == 0.25 * e1 - 0.25 * e2
    assert parse_multivector("-e7") == -e7
    assert parse_multivector("e1+e1") == 2 * e1
    assert parse_multivector("3") == 3 * e0
    assert parse_multivector("1.5e3") == 1.5 * e3  # basis suffix, not an exponent
    assert parse_multivector("2e3") == 2 * e3
    assert parse_multivector("1e-3") == 0.001 * e0  # signed exponent is scientific
    assert parse_multivector("2.5e+1 e3") == 25 * e3


def test_parse_json_array():
    assert parse_multivector("[1, 0, 0, 0, 0, 0, 0, -1]") == e0 - e7
    with pytest.raises(ParseError):
        parse_multivector("[1, 2]")
    with pytest.raises(ParseError):
        parse_multivector("[1, 2, 3, 4, 5, 6, 7, \"x\"]")
    with pytest.raises(ParseError):
        parse_multivector("[true, 0, 0, 0, 0, 0, 0, 0]")  # bool is a subclass of int


def test_parse_expressions():
    assert parse_multivector("(1+e1)*(1-e1)") == Multivector.zero()
    assert parse_multivector("conj(1+e1+e7)") == e0 - e1 + e7
    assert parse_multivector("prime(e6+e7)") == -e6 - e7
    assert parse_multivector("pinv(e1+e2)") == (e1 - e2) / 4
    assert parse_multivector("inv(e4)") == -e4
    assert parse_multivector("cre(1-e1+e7)") == e0 + e7
    assert parse_multivector("cim(1-e1+e7)") == -e1


def test_parse_product_binds_tighter_than_sum():
    assert parse_multivector("1 + e1*e1") == 2 * e0
    assert parse_multivector("e2 + e2*e2") == -e0 + e2
    assert parse_multivector("(1 + e1)*e2 - e3") == e2
    assert parse_multivector("2 - e1*e2*2") == 2 * e0 - 2 * e3


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_multivector("1+e9")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_multivector("1+")
    with pytest.raises(ParseError):
        parse_multivector("(1+e1")
    with pytest.raises(ParseError):
        parse_multivector("1 ? 2")
    with pytest.raises(ParseError):
        parse_multivector("bogus(e1)")


def test_print_parse_round_trip():
    from cl12.multivector import format_multivector

    samples = [
        e0,
        0.25 * e1 - 0.25 * e2,
        Multivector((1, -1, 1, 1, 0, 0, 0, -1)),
        Multivector.zero(),
        -0.5 * e5 + e7,
        1e-13 * e1 - 3e-13 * e2,  # exponent-formatted coefficients
        2.5e20 * e4 + 1e20 * e6,
    ]
    for m in samples:
        assert parse_multivector(format_multivector(m)) == m


# -- eval -------------------------------------------------------------------


def test_eval_inverse_product(capsys):
    code, out, _ = run(capsys, "eval", "(1+e2+e4) * inv(1+e2+e4)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "N = 1  T = 0  P = 1"


def test_eval_pinv(capsys):
    code, out, _ = run(capsys, "eval", "pinv(e1+e2)")
    assert code == 0
    assert out.splitlines()[0] == "0.25 e1 - 0.25 e2"


def test_eval_basis_square(capsys):
    code, out, _ = run(capsys, "eval", "e1*e1")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_eval_json_literal(capsys):
    code, out, _ = run(capsys, "eval", "[1,0,0,0,0,0,0,0]")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_eval_json_round_trips(capsys):
    code, out, _ = run(capsys, "eval", "--json", "0.25 e1 - 0.25 e2 + e7")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"coeffs", "N", "T", "P"}
    assert parse_multivector(json.dumps(payload["coeffs"])) == Multivector(payload["coeffs"])


def test_eval_singular_inverse_is_domain_error(capsys):
    code, out, err = run(capsys, "eval", "inv(e1+e2)")
    assert code == 1
    assert "error" in err


def test_eval_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "1++")
    assert code == 2
    assert "parse error" in err
    # every option is spelled --name, so "--e7" is an option, not a literal
    code, out, err = run(capsys, "eval", "--e7")
    assert (code, out) == (2, "") and err.startswith("usage:")


def test_literal_outside_the_double_range_is_a_parse_error(capsys):
    for text, position in [("1e+999", 0), ("1 + 1e+999 e3", 4),
                           ("[0, Infinity, 0, 0, 0, 0, 0, 0]", 4)]:
        with pytest.raises(ParseError) as err:
            parse_multivector(text)
        assert err.value.position == position
        code, out, err = run(capsys, "eval", text)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")


def test_value_leaving_the_double_range_is_a_domain_error(capsys):
    code, out, err = run(capsys, "eval", "1e+200e1 * 1e+200e1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


# -- solve ------------------------------------------------------------------


def test_solve_axb_example(capsys):
    code, out, _ = run(capsys, "solve", "axb", "--a", "1+e1", "--b", "e6+e7",
                       "--d", "1+e1+e6+e7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "solvable: yes"
    assert lines[1] == "particular: 0.25 + 0.25 e1 - 0.25 e6 - 0.25 e7"


def test_solve_ax_example(capsys):
    code, out, _ = run(capsys, "solve", "ax", "--a", "e1+e2", "--d", "e1+e2+e5+e6")
    assert code == 0
    assert out.splitlines()[1] == "particular: 0.5 + 0.5 e3 + 0.5 e4 + 0.5 e7"


def test_solve_xb_identity(capsys):
    code, out, _ = run(capsys, "solve", "xb", "--b", "e0", "--d", "e5")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "particular: e5"
    assert lines[2] == "homogeneous dimension: 0"


def test_solve_strict_unsolvable(capsys):
    code, out, _ = run(capsys, "solve", "ax", "--a", "e1+e2", "--d", "1", "--strict")
    assert code == 1
    assert out.splitlines()[0] == "solvable: no"
    code, _, _ = run(capsys, "solve", "ax", "--a", "e1+e2", "--d", "1")
    assert code == 0


def test_solve_missing_operand(capsys):
    code, _, err = run(capsys, "solve", "axb", "--a", "1+e1", "--d", "1")
    assert code == 2
    # an operand the form does not take is a usage error too, not ignored
    code, _, err = run(capsys, "solve", "ax", "--a", "e1", "--b", "e2", "--d", "1")
    assert code == 2 and "takes no --b" in err
    code, _, err = run(capsys, "solve", "xb", "--a", "e1", "--b", "e2", "--d", "1")
    assert code == 2 and "takes no --a" in err


def test_solve_json_schema(capsys):
    code, out, _ = run(capsys, "solve", "--json", "ax", "--a", "e1+e2",
                       "--d", "e1+e2+e5+e6")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"solvable", "particular", "hom_basis", "dim", "residual"}
    assert payload["solvable"] is True
    assert set(payload["particular"]) == {"coeffs", "N", "T", "P"}
    assert payload["dim"] == len(payload["hom_basis"])


# -- similar ----------------------------------------------------------------


def test_similar_witness(capsys):
    code, out, _ = run(capsys, "similar", "e2", "e6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "similar: yes"
    assert lines[1] == "reason: InvariantsMatch"
    assert lines[2] == "witness: e2 + e6"


def test_similar_central_mismatch(capsys):
    code, out, _ = run(capsys, "similar", "e7", "-e7")
    assert code == 0
    assert out.splitlines()[0] == "similar: no"
    assert out.splitlines()[1] == "reason: CreMismatch"


def test_similar_reflexive(capsys):
    code, out, _ = run(capsys, "similar", "1+e1", "1+e1")
    assert code == 0
    assert out.splitlines()[2] == "witness: 1"


def test_similar_json(capsys):
    code, out, _ = run(capsys, "similar", "--json", "e2", "e6")
    payload = json.loads(out)
    assert payload["similar"] is True
    assert payload["reason"] == "InvariantsMatch"
    assert payload["witness"]["coeffs"] == [0, 0, 1, 0, 0, 0, 1, 0]


def test_similar_tiny_pair_scales_the_witness(capsys):
    code, out, _ = run(capsys, "similar", "--json", "0.000001e2", "0.000001e6")
    assert code == 0
    payload = json.loads(out)
    assert payload["similar"] is True
    assert payload["witness"]["coeffs"] == [0, 0, 1e-6, 0, 0, 0, 1e-6, 0]


def test_similar_huge_pair_checks_its_witness_in_range(capsys):
    # |q*a - b*q| is checked on the reduced pair, so 1e300 does not overflow it
    code, out, err = run(capsys, "similar", "1e+300e2", "1e+300e6")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["witness: 1e+300 e2 + 1e+300 e6", "witness residual: 0"]


def test_similar_without_invertible_candidate_is_domain_error(capsys):
    # nilpotents of norms 1 and 1e-5: every witness candidate is singular
    # within tol; the error names the tolerance and no exception escapes main
    code, out, err = run(capsys, "similar", "e1+e2", "0.00001e1+0.00001e2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: no witness candidate is invertible within tol = 1e-09")
    assert "Traceback" not in err


def test_similar_has_no_seed_option(capsys):
    code, out, err = run(capsys, "similar", "--seed", "1", "e2", "e6")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


# -- rep / eig / det ----------------------------------------------------------


def test_rep_identity(capsys):
    code, out, _ = run(capsys, "rep", "e0", "--side", "left")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["1" if i == j else "0" for j in range(8)] for i in range(8)]


def test_rep_right_side(capsys):
    code, out, _ = run(capsys, "rep", "--json", "e2", "--side", "right")
    payload = json.loads(out)
    assert payload["side"] == "right"
    # vec(e1 * e2) = R(e2) @ vec(e1): column 1 carries e3
    assert payload["matrix"][3][1] == 1


def test_eig_example(capsys):
    code, out, _ = run(capsys, "eig", "1-e1+e2+e3-e7")
    assert code == 0
    assert out.strip() == "-i, i, 2-i, 2+i  (each with algebraic multiplicity 2)"


def test_eig_json(capsys):
    code, out, _ = run(capsys, "eig", "--json", "1-e1+e2+e3-e7")
    payload = json.loads(out)
    assert payload["multiplicity"] == 2
    values = {(z["re"], z["im"]) for z in payload["eigenvalues"]}
    assert values == {(0.0, -1.0), (0.0, 1.0), (2.0, -1.0), (2.0, 1.0)}


def test_det_example(capsys):
    code, out, _ = run(capsys, "det", "1+e2+e4")
    assert code == 0
    assert out.strip() == "det = 81  (P = 9, P^2 = 81)"
    # the exact determinant, rounded once
    code, out, _ = run(capsys, "det", "--json", "1+e2+e4")
    assert code == 0
    assert json.loads(out)["det"] == 81.0


def _strict_json(text):
    # RFC 8259 has no Infinity or NaN; json.loads accepts them unless told
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_maps_numbers_past_the_double_range_to_null(capsys):
    code, out, _ = run(capsys, "eval", "--json", "1e+200e1")
    assert code == 0
    assert _strict_json(out) == {"coeffs": [0, 1e200, 0, 0, 0, 0, 0, 0],
                                 "N": None, "T": 0, "P": None}
    code, out, _ = run(capsys, "det", "--json", "1e+300e1")
    assert code == 0
    assert _strict_json(out) == {"det": None, "P": None, "P_squared": None}
    # N = T = P = 0 are in range even where the square sum is not
    _, out, _ = run(capsys, "eval", "--json", "1e+200 + 1e+200 e1")
    assert [_strict_json(out)[k] for k in "NTP"] == [0, 0, 0]


def test_json_prints_no_negative_zero(capsys):
    # the true N of 1e-200 e1, -1e-400, underflows to -0.0; text prints "0"
    code, out, _ = run(capsys, "eval", "--json", "1e-200e1")
    assert code == 0 and "-0.0" not in out
    assert math.copysign(1.0, _strict_json(out)["N"]) == 1.0


# -- verify -------------------------------------------------------------------


def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "42")
    assert code == 0
    assert out.splitlines()[-1] == "overall: PASS"
    assert any(line.startswith("multivector:") for line in out.splitlines())
    # argparse takes an unambiguous prefix of an option for the option
    abbreviated = run(capsys, "verify", "--tri", "1", "--se", "3")
    assert abbreviated[0] == 0
    assert abbreviated == run(capsys, "verify", "--trials", "1", "--seed", "3")


def test_verify_rejects_zero_trials(capsys):
    code, _, _ = run(capsys, "verify", "--trials", "0")
    assert code == 2


def test_verify_json(capsys):
    # The verify suites are the one home of the paper's identities, and this
    # is the tier-1 test that runs them.  Pinning every suite's count makes a
    # check that stops running fail here, not just a check that fails.
    code, out, _ = run(capsys, "verify", "--json", "--trials", "200", "--seed", "7")
    payload = _strict_json(out)
    assert code == 0 and payload["ok"] is True
    assert [(s["name"], s["passed"], s["failed"]) for s in payload["suites"]] == [
        ("multivector", 3201, 0),
        ("matrix-rep", 4000, 0),
        ("inverse", 1704, 0),
        ("solver", 1100, 0),
        ("similarity", 1600, 0),
        ("oracle", 1901, 0),
    ]


# -- plumbing ----------------------------------------------------------------


def test_negative_tol_is_usage_error(capsys):
    code, _, _ = run(capsys, "eval", "--tol", "-1", "e1")
    assert code == 2


def test_large_tolerance(capsys):
    # K > 0 in the singular branch for every tol < 1; P / s^2 <= 1, so a
    # tol of 1 or more would call everything singular and is refused
    code, out, err = run(capsys, "eval", "--tol", "0.9", "pinv(e1)")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "e1"
    abbreviated = run(capsys, "eval", "e1", "--to", "0.5")
    assert abbreviated[0] == 0
    assert abbreviated == run(capsys, "eval", "e1", "--tol", "0.5")
    for tol in ("1", "1.5", "nan"):
        code, out, err = run(capsys, "eval", "--tol", tol, "pinv(e1)")
        assert code == 2 and out == ""
        assert "tolerance must be nonnegative and below 1" in err


# -- fuzz: any argument list exits 0, 1 or 2 without a traceback --------------

_coefficient = st.builds(
    lambda m, k: repr(m * 2.0 ** k),
    st.integers(1, 9), st.integers(-1074, 1020),
)
_term = st.builds(lambda c, t: f"{c} e{t}", _coefficient, st.integers(0, 7)) | st.sampled_from(
    ["e1", "e2", "e7", "1", "0"])
_literal = st.builds(
    lambda first, rest: first + "".join(f" {op} {t}" for op, t in rest),
    _term, st.lists(st.tuples(st.sampled_from("+-"), _term), max_size=3),
)
_expr = _literal | st.builds(lambda f, x: f"{f}({x})", st.sampled_from(
    ["inv", "pinv", "conj", "prime", "cim"]), _literal) | st.builds(
    lambda x, y: f"({x}) * ({y})", _literal, _literal)
_tol = st.sampled_from(["0", "1e-9", "1e-3", "0.5", "0.9", "0.999999", "1", "2", "-1",
                        "nan", "inf", "1e-300", "x"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["eval", "solve", "similar", "rep", "eig", "det", "verify"]))
    if command == "verify":
        argv = ["verify", "--trials", "1", "--seed", str(draw(st.integers(0, 99)))]
    elif command == "eval":
        argv = ["eval", draw(_expr)]
    elif command == "solve":
        kind = draw(st.sampled_from(["axb", "ax", "xb"]))
        argv = ["solve", kind, "--d", draw(_literal)]
        if kind != "xb":
            argv += ["--a", draw(_literal)]
        if kind != "ax":
            argv += ["--b", draw(_literal)]
        if draw(st.booleans()):
            argv.append("--strict")
    elif command == "similar":
        argv = ["similar", draw(_literal), draw(_literal)]
    else:
        argv = [command, draw(_literal)]
    if draw(st.booleans()):
        argv += ["--tol", draw(_tol)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["eval", "--tol", "0.9", "pinv(e1)"])
@example(["similar", "0.000001e2", "0.000001e6"])
@example(["solve", "ax", "--a", "1e-100 + 1e-100 e2 + 1e-100 e4", "--d", "1", "--strict"])
@example(["similar", "1e+300e2", "1e+300e6"])
@example(["eval", "1e+200e1", "--json"])
@example(["eval", "1e+200 + 1e+200 e1", "--json"])
@example(["det", "5e-324e1"])
@example(["det", "1e+50e1"])
@example(["eig", "1e+300 e1 + 1e+300 e2", "--json"])
def test_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--json" in argv:
        _strict_json(out.getvalue())


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_numpy_stays_off_the_import_path():
    # numpy is loaded by the matrix representation and the solver only, on
    # first use; `import cl12` and eval, eig, similar, det and rep never load it
    env = {**os.environ, "PYTHONPATH": str(Path(cl12.__file__).parents[1])}

    def python(*args):
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done

    script = """
import sys
import cl12
assert "numpy" not in sys.modules
assert cl12.left_matrix.__module__ == "cl12.matrep"
assert cl12.solve_axb.__module__ == "cl12.solver"
namespace = {}
exec("from cl12 import *", namespace)
assert set(cl12.__all__) <= set(namespace)
try:
    cl12.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("cl12.no_such_name resolved")
"""
    python("-c", script)
    for argv in (["eval", "(1+e2+e4) * inv(1+e2+e4)"], ["eig", "1-e1+e2+e3-e7"],
                 ["similar", "e2", "e6"], ["det", "1+e2+e4"],
                 ["rep", "1+e2", "--side", "right"]):
        # -X importtime lists every module the process imports on stderr
        imported = python("-X", "importtime", "-m", "cl12", *argv, "--json").stderr
        assert "numpy" not in imported, argv


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O and fails as a bare AssertionError,
    # which the CLI would print as a traceback; checks raise or are counted
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(cl12.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
