"""The mutant catalogue (``mutants/``) cannot drift from the code it mutates.

The full kill matrix takes about 50 s and runs in CI as its own step;
these checks are cheap: every entry still applies, every test it names is
collected, every CHANGES.md label it cites names a row of a mutation table
there, and the runner tells a caught mutant from an equivalent one.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_every_old_text_occurs_once_and_differs_from_the_new():
    assert run.problems() == []


def test_pytest_collects_every_named_test():
    # what pytest collects here: the module-level test* functions of tests/test_*.py
    collected = {f"tests/{path.name}::{node.name}"
                 for path in (ROOT / "tests").glob("test_*.py")
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}
    named = sorted({t for m in run.MUTANTS for t in m.tests})
    assert [test for test in named if test not in collected] == []


def test_every_cited_changes_label_is_a_row_of_changes():
    changes = (ROOT / "CHANGES.md").read_text()
    cited = {label for m in run.MUTANTS for label in re.findall(r"CHANGES\.md (M\d\d)\b", m.origin)}
    assert cited
    assert sorted(label for label in cited if f"| {label} " not in changes) == []


def test_runner_catches_a_mutant_and_not_an_equivalent_one():
    comment = run.Mutant("comment", "src/cl12/verify.py", "# -- suites ", "# -- the suites ",
                         "an edit inside a comment")
    assert run.problems([comment]) == []
    assert run.kill(comment, 2).catchers == {}
    product = next(m for m in run.MUTANTS if m.name == "generated product takes b*a")
    caught = run.kill(product, 2)
    assert "multivector: product disagrees with rational mirror" in map(caught.labels.get, caught.catchers)
