"""Tests of the benchmark itself: seeded inputs, the checkers, metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import ops  # noqa: E402
from cl12 import MPResult, Multivector  # noqa: E402


def _plain(cases):
    # Multivector equality is exact on the coefficients; numpy truth arrays
    # compare through their lists
    return [(c.args, c.classes, repr(c.truth)) for c in cases]


@pytest.mark.parametrize("build", [inputs.closed_forms_cases, inputs.equations_cases,
                                   inputs.verify_cases, inputs.cli_cases,
                                   inputs.oracle_probe_cases])
def test_same_seed_same_inputs(build):
    assert _plain(build(7)) == _plain(build(7))
    assert _plain(build(7)) != _plain(build(8))


def test_class_quotas_hold_for_every_seed():
    for seed in (1, 2):
        cases = inputs.closed_forms_cases(seed)
        scaled = sum("scale=scaled" in c.classes for c in cases)
        assert scaled * 4 == len(cases)


def _closed_form_case(kind: str):
    return next(c for c in inputs.closed_forms_cases(3)
                if c.classes == ("scale=desk", f"kind={kind}"))


@pytest.mark.parametrize("kind", ["invertible", "singular", "zero"])
def test_correct_closed_forms_pass(kind):
    case = _closed_form_case(kind)
    assert inputs.check_closed_forms(case, ops.closed_forms(*case.args)) == []


def test_sign_flip_in_mp_inverse_fails():
    case = _closed_form_case("singular")
    out = list(ops.closed_forms(*case.args))
    mp = out[5]
    coeffs = list(mp.pinv.coeffs)
    t = next(i for i, x in enumerate(coeffs) if x)
    coeffs[t] = -coeffs[t]
    out[5] = MPResult(pinv=Multivector(coeffs), kind=mp.kind, condition=mp.condition)
    assert inputs.check_closed_forms(case, tuple(out)) == ["mp_inverse.pinv"]


def test_raised_exception_fails():
    case = _closed_form_case("invertible")

    def boom(*_):
        raise ZeroDivisionError("boom")

    raised = ops.call(None, "test.boom", boom)
    assert isinstance(raised, ZeroDivisionError)
    out = list(ops.closed_forms(*case.args))
    out[4] = raised
    assert inputs.check_closed_forms(case, tuple(out)) == ["inverse.raised"]


def test_equations_checker_catches_wrong_verdicts():
    case = inputs.equations_cases(3)[0]
    sol, verdict = ops.equations(*case.args)
    assert inputs.check_equations(case, (sol, verdict)) == []
    wrong = type(sol)(solvable=not sol.solvable, particular=sol.particular,
                      hom_basis=sol.hom_basis, dim=sol.dim + 1, residual=sol.residual)
    assert "solve.verdict" in inputs.check_equations(case, (wrong, verdict))
    flipped = type(verdict)(not verdict.similar, verdict.witness, verdict.reason)
    assert inputs.check_equations(case, (sol, flipped)) == ["similar.verdict"]


def test_cli_checker_rejects_bad_exit_and_output():
    case = inputs.cli_cases(3)[0]
    rc, stdout = ops.cli_main(*case.args)
    assert inputs.check_cli(case, (rc, stdout)) == []
    assert inputs.check_cli(case, (2, stdout)) == ["cli.exit"]
    doc = json.loads(stdout)
    doc["coeffs"][0] += 1.0
    assert inputs.check_cli(case, (0, json.dumps(doc))) == ["cli.eval"]


def _defect_case():
    # an invertible element scaled by 2^k, k < -5: the documented defect
    return next(c for c in inputs.closed_forms_cases(3)
                if c.classes == ("scale=scaled", "kind=invertible")
                and c.truth.exponent < inputs.KNOWN_DEFECT_BELOW)


def test_scale_defect_is_known_and_nothing_else_is():
    case = _defect_case()
    out = list(ops.closed_forms(*case.args))
    bad = inputs.check_closed_forms(case, tuple(out))
    assert bad and inputs.known_defect(case, bad)
    # a wrong product on the same element is not the known defect
    out[0] = -out[0]
    bad = inputs.check_closed_forms(case, tuple(out))
    assert "mul" in bad and not inputs.known_defect(case, bad)


def test_unexpected_failure_makes_the_result_incorrect():
    import run

    case = _defect_case()
    tally = run.Tally()
    tally.record(case, ["is_singular", "mp_inverse.kind"], inputs.known_defect)
    assert (tally.failed, tally.unexpected) == (1, 0)
    tally.record(case, ["mul"], inputs.known_defect)
    assert (tally.failed, tally.unexpected) == (2, 1)


def test_measured_op_must_fail_as_in_the_checked_pass():
    import run

    case = _defect_case()
    bad = inputs.check_closed_forms(case, ops.closed_forms(*case.args))
    tally = run.Tally(expected={0: sorted(bad)})
    tally.record(case, bad, inputs.known_defect, 0)
    assert tally.ok()
    # still within the known defect, but not what the pass saw
    tally.record(case, bad[:1], inputs.known_defect, 0)
    assert (tally.unexpected, tally.changed) == (0, 1) and not tally.ok()


def _last_json(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_are_declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _last_json("equations", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_attempted_and_failed_depend_on_the_seed_only():
    first, second = (_last_json("closed-forms", 0, seed=3) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert first["attempted"] == len(inputs.closed_forms_cases(3))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
