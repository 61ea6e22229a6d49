"""Kill matrix of the mutant catalogue: which checks catch each mutant.

Usage, from the root of the repository (no install needed)::

    python mutants/run.py

A mutant is a one-line edit of the source that changes behaviour on some
input.  For each mutant of ``catalogue.MUTANTS`` the runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the edit there, and runs ``child.py`` in it:
``verify.run_all(200, 7)`` with the failures of each check counted, then
the tier-1 tests the entry names.  The library is not changed for this.
The runner checks that every ``cl12`` module the child loaded came from
the copy; without that, an editable install or pytest's ``pythonpath``
could quietly test the unmutated tree.

The unmutated copy runs first, with every named test; it must pass them
all, and it gives each check its label.  The matrix has one row per
check or named test and one column per mutant; a cell is the check's
failure count, ``F`` for a failed test, ``R`` for a suite that raised,
``C`` for a child that crashed or timed out.  A row's ``sole`` counts the
mutants that it alone catches.  A row whose ``sole`` is 0 is a candidate
for deletion, but only a candidate: the catalogue samples the possible
mutations, it does not list them all.

Exit status 1 when an entry's old text does not occur exactly once, when
the unmutated copy fails anything, when a child imported ``cl12`` from
anywhere but its copy, or when some mutant is caught by nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import MUTANTS, Mutant  # noqa: E402

TRIALS, SEED = 200, 7
TIMEOUT_S = 300


class Kill(NamedTuple):
    """What one run caught.  ``catchers`` maps each check that failed (by
    its ``suite:line`` key), each failed test, a suite that raised and a
    crash to its cell in the matrix: the failure count, ``F``, ``R`` or
    ``C``.  ``labels`` names every check the run called and every catcher."""

    catchers: dict[str, str]
    labels: dict[str, str]


def problems(mutants=MUTANTS) -> list[str]:
    """Entries that cannot be applied as written, one message each."""
    out = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new or m.old.count("\n") != m.new.count("\n"):
            out.append(f"{m.name}: new text must differ from the old and keep its line count")
    return out


def kill(mutant: Mutant | None, trials: int, tests=None) -> Kill:
    """Run one mutant (``None``: the unmutated tree) on a temporary copy.

    ``tests`` defaults to the tests the entry names.  Raises RuntimeError
    when the child loaded a ``cl12`` module from outside its copy.
    """
    tests = mutant.tests if tests is None else tests
    with tempfile.TemporaryDirectory(prefix="cl12-mutant-") as tmp:
        copy = Path(tmp).resolve()
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(copy), str(trials), str(SEED), *tests],
                cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Kill({"crashed": "C"}, {"crashed": f"timed out after {TIMEOUT_S} s"})
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return Kill({"crashed": "C"}, {"crashed": f"crashed: {last}"})
        out = json.loads(lines[-1])
        outside = [f for f in out["modules"] if not Path(f).resolve().is_relative_to(copy / "src")]
        if outside:
            raise RuntimeError(f"cl12 loaded from outside the mutated copy: {outside}")
    labels = {key: f"{key.split(':')[0]}: {label}" for key, (label, _) in out["checks"].items()}
    catchers = {key: str(failures) for key, (_, failures) in out["checks"].items() if failures}
    for suite, message in out["raised"].items():
        catchers[f"{suite}:raised"], labels[f"{suite}:raised"] = "R", f"{suite}: {message}"
    for test in out["failed_tests"]:
        catchers[test], labels[test] = "F", test
    return Kill(catchers, labels)


def main() -> int:
    bad = problems()
    if bad:
        print("\n".join(bad))
        return 1
    named = sorted({t for m in MUTANTS for t in m.tests})
    base = kill(None, TRIALS, tests=named)
    print(f"mutant kill matrix: run_all({TRIALS}, {SEED}) and the named tier-1 tests")
    if base.catchers:
        print("the unmutated copy fails:", ", ".join(base.labels.get(k, k) for k in base.catchers))
        return 1
    base.labels.update((test, test) for test in named)
    rows = []
    for m in MUTANTS:
        k = kill(m, TRIALS)
        rows.append((m, k.catchers))
        base.labels.update((key, k.labels[key]) for key in k.catchers if key not in base.labels)

    print("mutants:")
    for n, m in enumerate(MUTANTS, 1):
        print(f"  m{n:<3} {m.name} ({m.file}; {m.origin})")
    print("cells: failures of a check, F a failed test, R a suite that raised, C a crash;"
          " sole: the mutants a row alone catches")
    print("".join(f"{f'm{n}':>5}" for n in range(1, len(rows) + 1)) + "  sole")
    idle = 0
    for key, label in base.labels.items():
        sole = sum(list(caught) == [key] for _, caught in rows)
        idle += not sole
        print("".join(f"{caught.get(key, '.'):>5}" for _, caught in rows) + f"{sole:>6}  {label}")
    print(f"{idle} of {len(base.labels)} checks and named tests are no mutant's only catcher")
    missed = [m.name for m, caught in rows if not caught]
    if missed:
        print("caught by nothing:", ", ".join(missed))
        return 1
    print(f"every one of the {len(rows)} mutants is caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
