"""Layered benchmark of cl12: four workloads, end to end and per module.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload is a closed loop: one caller, one process, no threads; the
``cli`` workload runs one child process at a time.  Inputs come from
``--seed`` and their ground truth from ``cl12.oracle`` before timing
starts; every op's output is checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a
separate run that records a span around every call the benchmark makes
into a ``cl12`` module and reports the per-layer metrics: it measures the
named workload with and without spans, batch by batch, for the tracing
overhead, then gives every other workload a traced slice so that every
module is measured.  Times are reported at a reference speed (see
``REFERENCE_S``), with the wall-clock values printed beside them.  Spans go to ``perfbench/out/trace-<workload>.tsv``
and each result set, with its machine stamp, to
``perfbench/out/<workload>-trace<0|1>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``.  ``attempted`` and ``failed``
count the checked pass that precedes timing: every case of the workload
once (the first ``Spec.checked`` cases on ``verify`` and ``cli``, whose
lists are long), so they depend on the seed only, not on how many ops a
run had time for.  The timed ops are checked too.  ``correct`` is false
when any op fails other than by the documented scale defect
(``inputs.known_defect``): on a closed-forms element scaled by 2^k with
k < -5, a wrong singularity verdict, a raising ``inverse`` and a wrong
``mp_inverse`` kind.  It is false as well when a timed op's failed checks
differ from those of its case in the checked pass.  The defect's failures
are counted in ``failed`` and listed per class, not hidden.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import os
import pickle
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("closed-forms", "equations", "verify", "cli")
SETUP_RUNS = 11  # fresh processes per run for setup_s, after one warm-up
SETUP_TIMEOUT_S = 60.0
IMPORT_PROBE_ROUNDS = 5
OVERHEAD_SHARE = 0.4  # of a traced run's time, for the named workload

#: Times are reported at a reference speed.  Before each batch and before
#: an op when REFERENCE_PERIOD_S has passed since the last timing, a fixed
#: pure-Python loop is timed, and the times
#: measured after it are multiplied by REFERENCE_S / (the loop's time).
#: The shared 2-core machine this benchmark was tuned on drifts in speed by
#: up to a third over minutes, which no length of run averages out; the
#: scaled times cancel that drift.  Wall-clock values are printed beside
#: them.  At a speed where the loop takes REFERENCE_S the two agree.
REFERENCE_S = 1e-3
REFERENCE_PERIOD_S = 0.2
#: Process spawns, the cli ops and every set-up process, are scaled the
#: same way by the spawn of a bare interpreter, timed before each: they
#: follow the machine's speed at starting processes, which the loop tracks
#: less closely.  A bare interpreter runs no cl12 code either.
SPAWN_REFERENCE_S = 50e-3


class BenchError(RuntimeError):
    """The benchmark cannot run here or cannot produce a valid result."""


def _load_cl12():
    if not (SRC / "cl12" / "__init__.py").is_file():
        raise BenchError(f"no cl12 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cl12

    if Path(cl12.__file__).resolve().parent != SRC / "cl12":
        raise BenchError(f"imported cl12 from {cl12.__file__}, not from {SRC}")


@dataclass
class Spec:
    """A workload: its cases, the op over a case, and the checker."""

    name: str
    cases: list
    op: object
    check: object
    batch: int  # ops per batch; a whole number of quota blocks
    tail: float = 0.99  # the latency percentile the sample count supports
    checked: int | None = None  # cases in the checked pass; None for all
    reference: object = None  # () -> seconds of a bare spawn, for ops that spawn; None for the loop
    known_defect: object = None  # (case, failed checks) -> bool, or None


def build(name: str, seed: int, env: dict) -> Spec:
    import inputs
    import ops

    if name == "closed-forms":
        return Spec(name, inputs.closed_forms_cases(seed), ops.closed_forms,
                    inputs.check_closed_forms, batch=inputs.CF_BLOCK * 10,
                    known_defect=inputs.known_defect)
    if name == "equations":
        return Spec(name, inputs.equations_cases(seed), ops.equations, inputs.check_equations,
                    batch=inputs.EQ_BLOCK * 5)
    if name == "verify":
        return Spec(name, inputs.verify_cases(seed), ops.verify, inputs.check_verify,
                    batch=8, tail=0.90, checked=16)
    return Spec(name, inputs.cli_cases(seed), functools.partial(ops.cli_process, env=env),
                inputs.check_cli, batch=len(inputs.CLI_COMMANDS), tail=0.90,
                checked=len(inputs.CLI_COMMANDS),
                reference=functools.partial(spawn_reference_s, env))


@dataclass
class Tally:
    """Latencies, batch rates and failures of the ops one loop ran."""

    latency_ns: array = field(default_factory=lambda: array("d"))  # at the reference speed
    rates: list = field(default_factory=list)  # ops/s of each batch, at the reference speed
    wall_latency_ns: array = field(default_factory=lambda: array("q"))
    case_ids: array = field(default_factory=lambda: array("l"))  # the input of each latency
    wall_rates: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)  # every timing of the reference
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures outside the known-defect class
    expected: dict = field(default_factory=dict)  # case id -> failed checks in the checked pass
    changed: int = 0  # ops whose failed checks differ from their case's in the checked pass
    classes: Counter = field(default_factory=Counter)
    class_failed: Counter = field(default_factory=Counter)
    checks: Counter = field(default_factory=Counter)

    def record(self, case, bad: list, known_defect, case_id=None) -> None:
        self.attempted += 1
        self.classes.update(case.classes)
        if case_id in self.expected and sorted(bad) != self.expected[case_id]:
            self.changed += 1
        if bad:
            self.failed += 1
            self.class_failed.update(case.classes)
            self.checks.update(bad)
            if known_defect is None or not known_defect(case, bad):
                self.unexpected += 1

    def ok(self) -> bool:
        return self.unexpected == 0 and self.changed == 0

    def merge(self, other: "Tally", prefix: str = "") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.changed += other.changed
        self.classes.update({prefix + k: n for k, n in other.classes.items()})
        self.class_failed.update({prefix + k: n for k, n in other.class_failed.items()})
        self.checks += other.checks


def reference_loop_s() -> float:
    """Best of three timings of a fixed loop of float and tuple work."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        acc, xs = 0.0, []
        for i in range(4000):
            v = (i * 0.5, i + 1.0, float(i % 7))
            acc += v[0] * v[1] - v[2]
            xs.append(v)
        best = min(best, time.perf_counter() - t)
    return best


def run_batch(spec: Spec, cursor: int, tally: Tally, tr=None) -> int:
    """Run one batch from ``cursor``; returns the next cursor.

    Each op is checked as soon as it returns, outside its timing, so the
    outputs do not pile up and set off the collector at the same ops on
    every pass over the cases.  The batch's rate is its ops over the time
    spent in them, so the checks and the reference timings do not count.
    """
    cases = spec.cases
    ids = [(cursor + i) % len(cases) for i in range(spec.batch)]
    lat, scaled = [], []
    op = spec.op
    root = spec.name + ".op"
    timer, ref_s = ((spec.reference, SPAWN_REFERENCE_S) if spec.reference
                    else (reference_loop_s, REFERENCE_S))
    timed_at = None
    for i in ids:
        case = cases[i]
        if timed_at is None or time.perf_counter() - timed_at >= REFERENCE_PERIOD_S:
            ref = timer()
            timed_at = time.perf_counter()
            tally.reference_s.append(ref)
            scale = ref_s / ref
            if tr is not None:
                tr.scale = scale
        s = perf_counter_ns()
        if tr is None:
            out = op(*case.args)
        else:
            tr.begin_op(root)
            out = op(*case.args, tr=tr)
            tr.end_op()
        lat.append(perf_counter_ns() - s)
        scaled.append(lat[-1] * scale)
        record(spec, case, out, tally, i)
    tally.wall_rates.append(len(ids) * 1e9 / sum(lat))
    tally.rates.append(len(ids) * 1e9 / sum(scaled))
    tally.wall_latency_ns.extend(lat)
    tally.latency_ns.extend(scaled)
    tally.case_ids.extend(ids)
    return cursor + len(ids)


def record(spec: Spec, case, out, tally: Tally, case_id=None) -> list:
    """Check one op's output and count it; returns the failed checks."""
    try:
        bad = spec.check(case, out)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        bad = [f"output.{type(exc).__name__}"]  # an output of the wrong shape
    tally.record(case, bad, spec.known_defect, case_id)
    return bad


def checked_pass(spec: Spec, tally: Tally) -> dict:
    """The first ``spec.checked`` cases (all by default) once, untimed and
    untraced, checked; it is also the warm-up.  Returns each case's failed
    checks by case id, for the timed ops to be held to."""
    return {i: sorted(record(spec, case, spec.op(*case.args), tally))
            for i, case in enumerate(spec.cases[:spec.checked])}


def run_for(spec: Spec, seconds: float, tally: Tally, tr=None) -> None:
    """Batches until ``seconds`` have passed, checks included; at least one."""
    end = time.monotonic() + seconds
    cursor = 0
    while True:
        cursor = run_batch(spec, cursor, tally, tr)
        if time.monotonic() >= end:
            return


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


def tail(values, case_ids, q: float) -> tuple[float, int]:
    """The ``q`` percentile over inputs of each input's lower-quartile latency.

    An input that ran several times counts once, at the lower quartile of
    its runs: the collector's pauses and the shared machine's stalls hit
    some runs of every input, and this leaves them out, as ``timeit`` does
    by taking the best run.  So the tail is that of the slowest inputs.
    Returns the value and the number of inputs.
    """
    per_case = defaultdict(list)
    for case, x in zip(case_ids, values):
        per_case[case].append(x)
    return percentile([percentile(x, 0.25) for x in per_case.values()], q), len(per_case)


# -- setup -------------------------------------------------------------------


def spawn_reference_s(env: dict) -> float:
    """Seconds to spawn a bare interpreter and wait for it to exit."""
    return _spawn_seconds([sys.executable, "-c", "pass"], env, None)


def _spawn_seconds(argv: list, env: dict, stdin: bytes | None) -> float:
    """Seconds from spawning ``argv`` until it exits or, when it is given
    ``stdin``, until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE)
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
            readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            elapsed = time.perf_counter() - t0
            ok = line == b"ready\n"
            proc.wait(timeout=SETUP_TIMEOUT_S)  # it prints nothing after ready
            proc.stdout.close()
        else:
            proc.communicate(timeout=SETUP_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
            ok = True
        ok = ok and proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ok:
        raise BenchError(f"set-up process failed: {argv[:4]}")
    return elapsed


def setup_seconds(spec: Spec, env: dict) -> tuple[list[float], list[float]]:
    """Fresh process to first op returned, ``SETUP_RUNS`` times; returns
    the times scaled by a bare spawn timed before each (see
    ``SPAWN_REFERENCE_S``) and on the wall clock.

    The child gets the first case's arguments pickled on its standard
    input, so the time excludes input generation and ground truth.  One
    extra spawn first compiles bytecode and is discarded.
    """
    from cl12 import Multivector

    first = spec.cases[0]
    if spec.name == "cli":
        argv, stdin = [sys.executable, "-m", "cl12", *first.args[1]], None
    else:
        argv = [sys.executable, str(HERE / "setup_child.py"), str(SRC), spec.name]
        # Multivector forbids setting attributes, so it pickles by its coefficients
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf)
        pickler.dispatch_table = {Multivector: lambda m: (Multivector, (m.coeffs,))}
        pickler.dump(first.args)
        stdin = buf.getvalue()
    scaled, wall = [], []
    for _ in range(SETUP_RUNS + 1):
        scale = SPAWN_REFERENCE_S / spawn_reference_s(env)
        wall.append(_spawn_seconds(argv, env, stdin))
        scaled.append(wall[-1] * scale)
    return scaled[1:], wall[1:]


# -- reporting ---------------------------------------------------------------


def stamp(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or commit
    import numpy

    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed, "loadavg_start": list(os.getloadavg())}


def declared(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(args, info: dict, checked: Tally, tally: Tally, metrics: dict, samples: dict,
           kind: str) -> None:
    """Print the run's classes, failures and metrics, and the result line;
    ``checked`` is the checked pass, ``tally`` the ops measured."""
    units = declared(kind)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    info["stamp"]["loadavg_end"] = list(os.getloadavg())
    print("stamp: " + json.dumps(info["stamp"]))
    # every op has one label per dimension ("scale", "kind", ...), so the
    # ops of a dimension are the base of each of its shares
    base = Counter()
    for label, n in tally.classes.items():
        base[label.split("=")[0]] += n
    for label in sorted(tally.classes):
        n, of = tally.classes[label], base[label.split("=")[0]]
        print(f"class {label}: {n} of {of} ops ({n / of:.1%}), "
              f"{tally.class_failed[label]} failed")
    for what, t in (("checked pass, each case once", checked), ("measured ops", tally)):
        print(f"failed_frac = {t.failed / t.attempted:.6f} ({t.failed} failed of "
              f"{t.attempted} ops; {what})")
    for check, n in sorted(tally.checks.items()):
        print(f"  failed check {check}: {n}")
    if tally.changed:
        print(f"  {tally.changed} measured ops failed other checks than in the checked pass")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]} ({samples[name]})")
    result = {"correct": checked.ok() and tally.ok(), "attempted": checked.attempted,
              "failed": checked.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**info, "classes": dict(tally.classes), "class_failed": dict(tally.class_failed),
                   "failed_checks": dict(tally.checks),
                   "measured": {"attempted": tally.attempted, "failed": tally.failed},
                   "samples": samples, **result}, fh, indent=1)
    print(json.dumps(result))


# -- the two runs ------------------------------------------------------------


def end_to_end(args, env: dict, info: dict) -> None:
    spec = build(args.workload, args.seed, env)
    gc.freeze()  # the inputs live all run; collections need not scan them
    setup, setup_wall = setup_seconds(spec, env)
    checked = Tally()
    tally = Tally(expected=checked_pass(spec, checked))
    run_for(spec, args.seconds, tally)
    # read before the statistics below allocate their sorted copies
    who = resource.RUSAGE_CHILDREN if spec.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    n = len(tally.latency_ns)
    tail_ns, inputs_seen = tail(tally.latency_ns, tally.case_ids, spec.tail)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": statistics.median(tally.rates),
        "latency_p50_us": statistics.median(tally.latency_ns) / 1e3,
        "latency_tail_us": tail_ns / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    wall = "; wall clock {:.6g}"
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes"
                   + wall.format(statistics.median(setup_wall)),
        "throughput_ops_s": f"median of {len(tally.rates)} batches of {spec.batch} ops"
                            + wall.format(statistics.median(tally.wall_rates)),
        "latency_p50_us": f"median of {n} ops"
                          + wall.format(statistics.median(tally.wall_latency_ns) / 1e3),
        "latency_tail_us": f"p{spec.tail * 100:.0f} over {inputs_seen} inputs of each input's "
                           f"lower quartile of {n / inputs_seen:.3g} ops on average"
                           + wall.format(tail(tally.wall_latency_ns, tally.case_ids,
                                              spec.tail)[0] / 1e3)
                           + f"; p{spec.tail * 100:.0f} over all ops, at the reference speed, "
                           + f"{percentile(tally.latency_ns, spec.tail) / 1e3:.6g}",
        "peak_rss_mb": "ru_maxrss of " + ("the cl12 processes" if spec.name == "cli"
                                          else "this process"),
    }
    what, ref_s = ("bare spawn", SPAWN_REFERENCE_S) if spec.reference else ("loop", REFERENCE_S)
    print(f"reference {what}: median {statistics.median(tally.reference_s) * 1e3:.4g} ms over "
          f"{len(tally.reference_s)} timings; times below are scaled to {ref_s * 1e3:g} ms; "
          f"set-up times to a bare spawn of {SPAWN_REFERENCE_S * 1e3:g} ms")
    report(args, info, checked, tally, metrics, samples, "end_to_end")


def traced(args, env: dict, info: dict) -> None:
    import inputs
    import ops
    from spans import Tracer

    specs = {name: build(name, args.seed, env) for name in WORKLOADS}
    gc.freeze()
    probes = {
        "verify": Spec("oracle", inputs.oracle_probe_cases(args.seed), ops.oracle_probe,
                       inputs.check_oracle_probe, batch=4),
        "cli": Spec("cli-main", specs["cli"].cases, ops.cli_main, inputs.check_cli,
                    batch=len(inputs.CLI_COMMANDS)),
    }
    imports = Spec("cli-import", [inputs.Case((m,), (f"import={m}",), None)
                                  for m in ("bare", "cl12", "numpy")],
                   functools.partial(ops.import_probe, env=env), inputs.check_exit,
                   batch=3)
    # error counts and products come from the checked passes of the
    # in-process workloads, so they depend on the seed only, not on the
    # speed of the run; the passes are also the warm-up
    fixed = {name: Tally() for name in ("closed-forms", "equations", "verify")}
    expected = {}
    with ops.counting_products() as products:
        for name in ("closed-forms", "equations"):
            expected[name] = checked_pass(specs[name], fixed[name])
    expected["verify"] = checked_pass(specs["verify"], fixed["verify"])

    tr = Tracer()
    tallies = {name: Tally(expected=expected.get(name, {}))
               for name in WORKLOADS + ("oracle", "cli-main", "cli-import")}
    slice_s = args.seconds * (1 - OVERHEAD_SHARE) / (len(WORKLOADS) - 1)

    # the named workload: each batch runs with and without spans, and the
    # two take turns going first
    spec = specs[args.workload]
    plain, spanned = (Tally(expected=expected.get(spec.name, {})) for _ in range(2))
    end = time.monotonic() + args.seconds * OVERHEAD_SHARE
    cursor = 0
    while time.monotonic() < end or not spanned.rates:
        runs = [(plain, None), (spanned, tr)]
        for tally, tracer in runs if len(plain.rates) % 2 == 0 else runs[::-1]:
            run_batch(spec, cursor, tally, tracer)
        cursor += spec.batch
    tallies[args.workload].merge(plain)
    tallies[args.workload].merge(spanned)
    overhead = statistics.median(plain.rates) / statistics.median(spanned.rates) - 1

    # every other workload gets a traced slice; verify and cli share theirs
    # with in-process probes of the oracle and of cli.main, and the cli
    # process ops themselves are traced only when cli is the named workload
    for name in WORKLOADS:
        share = slice_s / 2 if name in probes else slice_s
        if name not in (args.workload, "cli"):
            run_for(specs[name], share, tallies[name], tr)
        if name in probes:
            run_for(probes[name], share, tallies[probes[name].name], tr)
    for _ in range(IMPORT_PROBE_ROUNDS):
        run_batch(imports, 0, tallies[imports.name], tr)

    durations = tr.durations_ns()

    def p50_us(span: str) -> float:
        if not durations[span]:
            raise BenchError(f"no spans named {span}")
        return statistics.median(durations[span]) / 1e3

    def errors(name: str, prefix: str) -> int:
        return sum(n for c, n in fixed[name].checks.items() if c.startswith(prefix))

    metrics = {
        "multivector.mul.p50_us": p50_us("multivector.mul"),
        "multivector.mul.calls": products[0],
        "multivector.functionals.p50_us": p50_us("multivector.functionals"),
        "multivector.is_singular.p50_us": p50_us("multivector.is_singular"),
        "matrep.left_matrix.p50_us": p50_us("matrep.left_matrix"),
        "matrep.eigenvalues.p50_us": p50_us("matrep.eigenvalues"),
        "inverse.inverse.p50_us": p50_us("inverse.inverse"),
        "inverse.mp_inverse.desk.p50_us": p50_us("inverse.mp_inverse.desk"),
        "inverse.mp_inverse.scaled.p50_us": p50_us("inverse.mp_inverse.scaled"),
        "inverse.mp_inverse.kind_errors": fixed["closed-forms"].checks["mp_inverse.kind"],
        "solver.solve_axb.errors": errors("equations", "solve."),
        "similarity.is_similar.similar.p50_us": p50_us("similarity.is_similar.similar"),
        "similarity.is_similar.dissimilar.p50_us": p50_us("similarity.is_similar.dissimilar"),
        "similarity.is_similar.errors": errors("equations", "similar."),
        "verify.run_all.p50_ms": p50_us("verify.run_all") / 1e3,
        "verify.run_all.failed_checks": errors("verify", "run_all."),
        "cli.import.cl12_ms": (p50_us("cli.import.cl12") - p50_us("cli.import.bare")) / 1e3,
        "cli.import.numpy_ms": (p50_us("cli.import.numpy") - p50_us("cli.import.bare")) / 1e3,
        "trace.overhead_frac": overhead,
    }
    for mix in ("inv_inv", "inv_sing", "sing_inv", "sing_sing", "zero"):
        metrics[f"solver.solve_axb.{mix}.p50_us"] = p50_us(f"solver.solve_axb.{mix}")
    for name in ("exact_pinv", "char_poly", "exact_solve", "fmp_inverse"):
        metrics[f"oracle.{name}.p50_us"] = p50_us(f"oracle.{name}")
    for command in ("eval", "solve", "similar", "eig", "det", "rep", "verify"):
        metrics[f"cli.main.{command}.p50_us"] = p50_us(f"cli.main.{command}")

    samples = {m: f"median of {len(durations[m.rsplit('.', 1)[0]])} spans"
               for m in metrics if m.endswith(("_us", "_ms"))}
    imports_note = f"medians of {IMPORT_PROBE_ROUNDS} fresh processes, minus a bare interpreter"
    once = "one untimed pass over every {} case"
    samples.update({
        "multivector.mul.calls": "products of two multivectors, the library's own included, "
                                 "in " + once.format("closed-forms and equations")
                                 + f" ({fixed['closed-forms'].attempted} + "
                                 f"{fixed['equations'].attempted} ops)",
        "inverse.mp_inverse.kind_errors": f"of {fixed['closed-forms'].attempted} mp_inverse "
                                          "calls, " + once.format("closed-forms"),
        "solver.solve_axb.errors": f"of {fixed['equations'].attempted} solves (solve_ax and "
                                   "solve_xb call solve_axb), " + once.format("equations"),
        "similarity.is_similar.errors": f"of {fixed['equations'].attempted} is_similar calls, "
                                        + once.format("equations"),
        "verify.run_all.failed_checks": f"over {fixed['verify'].attempted} run_all calls, "
                                        "one untimed pass over the first "
                                        f"{specs['verify'].checked} seeds",
        "cli.import.cl12_ms": imports_note,
        "cli.import.numpy_ms": imports_note,
        "trace.overhead_frac": f"median batch rate of {len(plain.rates)} untraced over "
                               f"{len(spanned.rates)} traced batches of {args.workload}, minus 1",
    })

    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{args.workload}.tsv")
    total, checked = Tally(), Tally()
    for name, t in tallies.items():
        total.merge(t, prefix=f"{name}/")
    for name, t in fixed.items():
        checked.merge(t, prefix=f"{name}/")
    print(f"trace: {len(tr.spans)} spans written to {OUT.relative_to(ROOT)}/trace-{args.workload}.tsv")
    report(args, info, checked, total, metrics, samples, "per_layer")


def run_all_workloads(args) -> int:
    """Every workload, end to end and traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  check=False)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        _load_cl12()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                "stamp": stamp(args.seed)}
        (traced if args.trace else end_to_end)(args, env, info)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
