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
from cl12.verify import SuiteResult


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
    # usage errors, reported as argparse reports its own: the usage line and
    # the message, with no position, as no literal is at fault
    for argv, message in (
        (["axb", "--a", "1+e1", "--d", "1"], "axb needs --b"),
        (["axb", "--d", "1"], "axb needs --a"),
        # an operand the form does not take is a usage error too, not ignored
        (["ax", "--a", "e1", "--b", "e2", "--d", "1"], "ax takes no --b"),
        (["xb", "--a", "e1", "--b", "e2", "--d", "1"], "xb takes no --a"),
    ):
        code, out, err = run(capsys, "solve", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: cl12 solve ")
        assert err.endswith(f"cl12 solve: error: {message}\n")
        assert "position" not in err


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
    assert lines[2] == "witness: -e3 - e7"


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
    assert payload["witness"]["coeffs"] == [0, 0, 0, -1, 0, 0, 0, -1]


def test_similar_tiny_pair_scales_the_witness(capsys):
    code, out, _ = run(capsys, "similar", "--json", "0.000001e2", "0.000001e6")
    assert code == 0
    payload = json.loads(out)
    assert payload["similar"] is True
    assert payload["witness"]["coeffs"] == [0, 0, 0, -1e-6, 0, 0, 0, -1e-6]


def test_similar_huge_pair_checks_its_witness_in_range(capsys):
    # |q*a - b*q| is checked on the reduced pair, so 1e300 does not overflow it
    code, out, err = run(capsys, "similar", "1e+300e2", "1e+300e6")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["witness: -1e+300 e3 - 1e+300 e7", "witness residual: 0"]


def test_similar_near_pair_finds_a_witness_that_meets_its_equation(capsys):
    # cim(b) + cim(a) cancels to about 2e-10 and is invertible, but misses
    # q*a = b*q by 0.4 |q| scale; the library's witness meets it
    code, out, err = run(capsys, "similar", "2 + e1", "2 - 0.9999999999 e1 + 2e-10 e2")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["similar: yes", "reason: InvariantsMatch"]


def test_similar_without_invertible_candidate_is_domain_error(capsys):
    # nilpotents of norms 1 and 1e-5: every witness is singular within tol;
    # the error names the tolerance and no exception escapes main
    code, out, err = run(capsys, "similar", "e1+e2", "0.00001e1+0.00001e2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: no witness is invertible within tol = 1e-09")
    assert "Traceback" not in err


def test_readme_witnesses_are_what_the_code_prints(capsys):
    # the library line's comment starts with the witness it prints, and
    # each `cl12 similar` line's comment is `witness <what the CLI prints>`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    names = {name: getattr(cl12, name) for name in cl12.__all__}
    shown = [line.split("#", 1) for line in readme
             if line.startswith(("print(is_similar(", "cl12 similar ")) and "witness" in line]
    assert len(shown) == 2
    for code, comment in shown:
        if code.startswith("print("):
            printed = str(eval(code.strip()[len("print("):-1], names))
            assert comment.split(",")[0].strip() == printed
        else:
            _, out, _ = run(capsys, *code.split()[1:])
            assert f"witness: {comment.strip().removeprefix('witness ')}" in out.splitlines()


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
        ("multivector", 1806, 0),
        ("matrix-rep", 1200, 0),
        ("inverse", 1000, 0),
        ("solver", 640, 0),
        ("similarity", 800, 0),
        ("oracle", 501, 0),
    ]
    # each suite's wall time, which the text output does not print
    assert all(type(s["seconds"]) is float and s["seconds"] >= 0 for s in payload["suites"])


def test_verify_reports_an_exception_as_a_failed_check(capsys, monkeypatch):
    # a suite that raises ends as one failed check naming the exception;
    # the other suites still run, and the CLI prints its table and exits 1
    from cl12 import oracle

    def broken(m):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(oracle, "char_poly", broken)
    code, out, err = run(capsys, "verify", "--trials", "2", "--seed", "5")
    assert code == 1 and "Traceback" not in out + err
    lines = out.splitlines()
    assert lines[-1] == "overall: FAIL"
    assert "  raised ZeroDivisionError: planted" in lines
    counts = {line.split(":")[0]: line for line in lines if not line.startswith(" ")}
    assert counts["matrix-rep"].endswith("1 failed")  # the one suite that takes char_poly
    for name in ("multivector", "inverse", "solver", "similarity", "oracle"):
        assert counts[name].endswith(" 0 failed")


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


def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch):
    # main builds only the named command's subparser; exit code, stdout and
    # stderr are those of the parser of every command
    from cl12 import cli

    table = (["-h"], ["eval", "-h"], ["bogus"], [], ["eval", "1", "2"], ["eval", "e1"],
             ["solve", "ax", "--d", "1", "--b", "2"], ["verify", "--trials", "0"],
             ["rep", "e1", "--side", "up"], ["similar", "e1"], ["det", "--json", "-e7"],
             ["eig", "--tol", "2", "e1"])
    got = [run(capsys, *argv) for argv in table]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    assert got == [run(capsys, *argv) for argv in table]
    assert got[4][0] == 2 and got[4][2].startswith("usage: cl12 [-h] {eval,solve,")


def _imported_roots(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module.split(".")[0]]
    return []


def test_numpy_stays_off_the_import_path():
    # the package has no runtime dependency: no module imports numpy
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(cl12.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if "numpy" in _imported_roots(node)]
    assert found == []


def test_verify_runs_with_numpy_blocked():
    # a None entry in sys.modules makes every import of numpy fail
    script = ("import runpy, sys; sys.modules['numpy'] = None; "
              "runpy.run_module('cl12', run_name='__main__')")
    env = {**os.environ, "PYTHONPATH": str(Path(cl12.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, "verify", "--trials", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_imports_leave_dataclasses_and_inspect_out():
    # the result types are NamedTuples, so importing the package, the CLI
    # or the suites loads neither module (nor ast, dis and tokenize with them);
    # the package alone loads neither the oracle, whose integer product is
    # generated at import, nor fractions
    env = {**os.environ, "PYTHONPATH": str(Path(cl12.__file__).parents[1])}
    for module in ("cl12", "cl12.cli", "cl12.verify"):
        banned = {"dataclasses", "inspect"}
        if module == "cl12":
            banned |= {"cl12.oracle", "fractions"}
        script = f"import sys, {module}; print(sorted({banned!r} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), (module, done.stderr)


_COMMAND_MODULES = ("matrep", "similarity", "solver", "oracle", "verify")


def _fresh_python(script):
    env = {**os.environ, "PYTHONPATH": str(Path(cl12.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)


def _loaded_by(*argv):
    """The modules of ``_COMMAND_MODULES`` that a fresh process loads to run
    ``cl12.cli.main(argv)``, as ``python -m cl12`` does, or with no
    arguments to import ``cl12``."""
    run = f"from cl12.cli import main; main({list(argv)!r})" if argv else "import cl12"
    done = _fresh_python(f"import sys; {run}; "
                         f"print(*(m for m in {_COMMAND_MODULES!r} if 'cl12.' + m in sys.modules))")
    assert (done.returncode, done.stderr) == (0, ""), (argv, done.stderr)
    return done.stdout.splitlines()[-1].split()  # the command prints first


def test_each_command_loads_only_the_modules_it_needs():
    # the package loads multivector and inverse; the rest load on first use
    assert _loaded_by() == []
    assert _loaded_by("eig", "e1", "--json") == []
    assert _loaded_by("similar", "e1", "e2") == ["similarity"]
    assert _loaded_by("solve", "ax", "--a", "e1", "--d", "e2") == ["solver"]
    assert _loaded_by("rep", "e1") == ["matrep"]


def test_package_names_are_their_home_objects():
    # cl12.inverse names both a submodule and a function; importing the
    # submodule sets the package attribute to the module, so a lazy name
    # table that held inverse would hand out the module here
    script = """
import sys
import cl12.cli, cl12.similarity, cl12.solver
import cl12
bound = dict(vars(cl12))  # before any name resolves through __getattr__
bad = []
for name in cl12.__all__:
    value = bound[name] if name in bound else getattr(cl12, name)
    homes = {id(vars(m)[name]) for n, m in list(sys.modules.items())
             if n.startswith("cl12.") and name in vars(m)}
    if homes != {id(value)}:
        bad.append(name)
print(bad)
"""
    done = _fresh_python(script)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        cl12.no_such_name
    assert "__all__" in dir(cl12) and set(cl12.__all__) <= set(dir(cl12))
    assert len(set(cl12.__all__)) == len(cl12.__all__)


def test_suite_result_counts_and_keeps_five_messages():
    res = SuiteResult("s")
    for n in range(8):
        res.check(n % 4 == 0, f"m{n}")
    assert (res.name, res.passed, res.failed, res.messages, res.ok) == (
        "s", 2, 6, ["m1", "m2", "m3", "m5", "m6"], False)
    assert SuiteResult("t").ok and SuiteResult("t").messages == []
    # a ready-made message is kept as it is; only args are %-formatted in
    res = SuiteResult("u")
    res.check(False, "gap 5%")
    res.check(False, "trial %d: gap %g%%", 3, 0.5)
    assert res.messages == ["gap 5%", "trial 3: gap 0.5%"]
    with pytest.raises(AttributeError):
        res.extra = 1  # __slots__


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O and fails as a bare AssertionError,
    # which the CLI would print as a traceback; checks raise or are counted
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(cl12.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
