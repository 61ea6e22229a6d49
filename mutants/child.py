"""The child process of ``run.py``: ``verify`` and named tier-1 tests on one copy.

Usage::

    python mutants/child.py COPY TRIALS SEED [TEST_ID ...]

COPY holds ``src/``, ``tests/`` and ``pyproject.toml``; run it with COPY
as the working directory.  ``cl12`` is imported from ``COPY/src``, and
the named tests run through pytest in the same process.  The last line of
standard output is one JSON object:

* ``checks``: ``{"suite:line": [label, failures]}`` for every line of
  ``cl12.verify`` that called ``check``, labelled by its first message
  (formatted, whether the check passed or not) without the trial number
  and the values in parentheses;
* ``raised``: ``{suite: message}`` for each suite that ended by raising;
* ``failed_tests``: the node ids of the named tests that failed, or
  ``pytest exited N`` when pytest could not run them;
* ``modules``: the file of every ``cl12`` module loaded, so the caller can
  tell that they all came from the copy.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path


def _label(message: str) -> str:
    return re.sub(r"^trial \d+: ", "", message).split(" (")[0]


def main(argv: list[str]) -> None:
    copy = Path(argv[0]).resolve()
    trials, seed, tests = int(argv[1]), int(argv[2]), argv[3:]
    sys.path.insert(0, str(copy / "src"))
    from cl12 import verify

    checks: dict[str, list] = {}
    check = verify.SuiteResult.check

    def counted(res, ok, fmt, *args):
        entry = checks.setdefault(f"{res.name}:{sys._getframe(1).f_lineno}", [_label(fmt % args if args else fmt), 0])
        entry[1] += not ok
        check(res, ok, fmt, *args)

    verify.SuiteResult.check = counted
    try:
        results = verify.run_all(trials, seed)
    finally:
        verify.SuiteResult.check = check
    # run_all counts an exception as one failure outside check
    raised = {r.name: r.messages[-1] for r in results
              if r.failed > sum(f for key, (_, f) in checks.items() if key.startswith(r.name + ":"))}

    failed_tests: list[str] = []
    if tests:
        import pytest

        class Recorder:
            def pytest_runtest_logreport(self, report):
                if report.failed:
                    failed_tests.append(report.nodeid)

        code = pytest.main(["-qq", "--no-header", "-p", "no:cacheprovider", *tests], plugins=[Recorder()])
        if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
            failed_tests.append(f"pytest exited {int(code)}")

    modules = sorted(m.__file__ for name, m in sys.modules.items()
                     if name == "cl12" or name.startswith("cl12."))
    print(json.dumps({"checks": checks, "raised": raised, "failed_tests": failed_tests,
                      "modules": modules}))


if __name__ == "__main__":
    main(sys.argv[1:])
