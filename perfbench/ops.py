"""The timed operation of each workload.

Every call into a ``cl12`` module goes through :func:`call`, which turns
an exception into the returned value (the checker counts it as a failure)
and, when a tracer is given, records a span named after the module and
function.  Only ``cl12`` itself is imported here, so a fresh process that
imports this module pays exactly the library's import cost; ``cl12.verify``
and ``cl12.cli`` are imported on first use by the ops that need them.
"""

from __future__ import annotations

import contextlib
import io
import operator
import subprocess
import sys
from time import perf_counter_ns

from cl12 import (
    Multivector,
    eigenvalues,
    inverse,
    is_similar,
    left_matrix,
    mp_inverse,
    solve_ax,
    solve_axb,
    solve_xb,
)

SOLVERS = {"axb": solve_axb, "ax": solve_ax, "xb": solve_xb}

#: A CLI process that runs longer than this is killed and counted as failed.
CLI_TIMEOUT_S = 60.0


def call(tr, name, fn, *args):
    """``fn(*args)``, or the exception it raised; a span when ``tr`` is set."""
    if tr is None:
        try:
            return fn(*args)
        except Exception as exc:  # the checker reports it as a failed op
            # without its traceback, which would keep every frame of the
            # failed call alive until the next full collection
            return exc.with_traceback(None)
    start = perf_counter_ns()
    try:
        return fn(*args)
    except Exception as exc:
        return exc.with_traceback(None)
    finally:
        tr.span(name, start, perf_counter_ns())


def closed_forms(a, b, invertible, scale, tr=None):
    """One element ``a`` and its partner ``b`` through every closed form."""
    return (
        call(tr, "multivector.mul", operator.mul, a, b),
        call(tr, "multivector.add", operator.add, a, b),
        call(tr, "multivector.functionals", Multivector.functionals, a),
        call(tr, "multivector.is_singular", Multivector.is_singular, a),
        call(tr, "inverse.inverse", inverse, a) if invertible else None,
        call(tr, f"inverse.mp_inverse.{scale}", mp_inverse, a),
        call(tr, "matrep.left_matrix", left_matrix, a),
        call(tr, "matrep.eigenvalues", eigenvalues, a),
    )


def equations(form, mix, a, b, d, pa, pb, pair, tr=None):
    """One linear solve of the given form plus one similarity decision."""
    args = {"axb": (a, b, d), "ax": (a, d), "xb": (b, d)}[form]
    return (
        call(tr, f"solver.solve_{form}.{mix}", SOLVERS[form], *args),
        call(tr, f"similarity.is_similar.{pair}", is_similar, pa, pb),
    )


def verify(seed, tr=None):
    """``verify.run_all`` at one trial per suite."""
    from cl12.verify import run_all

    return call(tr, "verify.run_all", run_all, 1, seed)


def _run_process(argv, env):
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def cli_process(command, argv, env, tr=None):
    """One fresh ``python -m cl12`` process; returns (exit code, stdout)."""
    return call(tr, f"cli.process.{command}", _run_process,
                [sys.executable, "-m", "cl12", *argv], env)


def cli_main(command, argv, tr=None):
    """``cl12.cli.main(argv)`` in this process with its output captured."""
    from cl12.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = call(tr, f"cli.main.{command}", main, argv)
    return rc, out.getvalue()


def oracle_probe(la, system, d, a, tr=None):
    """The oracle's heavy entry points on one set of exact inputs."""
    from cl12 import oracle

    return (
        call(tr, "oracle.exact_pinv", oracle.exact_pinv, la),
        call(tr, "oracle.char_poly", oracle.char_poly, la),
        call(tr, "oracle.exact_solve", oracle.exact_solve, system, d),
        call(tr, "oracle.fmp_inverse", oracle.fmp_inverse, a),
    )


def import_probe(module, env, tr=None):
    """A fresh interpreter that imports ``module`` (or nothing, for "bare")."""
    code = "pass" if module == "bare" else f"import {module}"
    return call(tr, f"cli.import.{module}", _run_process, [sys.executable, "-c", code], env)


@contextlib.contextmanager
def counting_products():
    """Count algebra products ``a * b`` of two multivectors, the library's
    own included, while the block runs; yields a one-item list."""
    mul = Multivector.__mul__
    count = [0]

    def counted(self, other):
        if isinstance(other, Multivector):
            count[0] += 1
        return mul(self, other)

    Multivector.__mul__ = counted
    try:
        yield count
    finally:
        Multivector.__mul__ = mul
