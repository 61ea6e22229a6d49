"""The draws of the ``verify`` suites: drawn through ``getrandbits`` as
``randint`` would draw them, so every seed gives the same inputs, counts
and messages either way."""

import random

from cl12 import verify
from cl12.multivector import DEFAULT_TOL


def _by_randint(rng, lo, hi, n=8):
    return [rng.randint(lo, hi) for _ in range(n)]


def test_draw_helper_is_randint_draw_for_draw():
    # the ranges and counts the suites draw, between the randrange(2) calls
    # random_singular and _mixed make
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi, n in ((-5, 5, 8), (-3, 3, 8), (-5, 5, 2)):
            assert verify._randints(ours, lo, hi, n) == _by_randint(theirs, lo, hi, n)
            assert ours.randrange(2) == theirs.randrange(2)
        assert ours.getstate() == theirs.getstate()


def test_solver_counts_are_the_same_on_every_python():
    # at tol 0 the Gram row turns on the last bits of each entry, which the
    # builtin sum rounds differently from Python 3.12 on
    solver = next(r for r in verify.run_all(3, 0, 0.0) if r.name == "solver")
    assert (solver.passed, solver.failed) == (5, 5)


def test_run_all_is_the_same_with_randint_draws(monkeypatch):
    # at tol = 0 most float rows fail, so their messages are compared too
    runs = [(s, DEFAULT_TOL) for s in range(200)] + [(s, 0.0) for s in range(50)]

    def outcomes():
        return [[(r.name, r.passed, r.failed, r.messages) for r in verify.run_all(1, s, tol)]
                for s, tol in runs]

    new = outcomes()
    assert any(messages for *_, messages in new[-1])
    monkeypatch.setattr(verify, "_randints", _by_randint)
    assert outcomes() == new
