"""Solve loops, setup timing and metric assembly for the benchmark.

``Runner`` holds one workload's instance pool, solves it through the
library or the in-process CLI, and gates every solve.  ``end_to_end`` times
solves with no tracing, against the reference kernel of
``perfbench.reference``; ``per_layer`` runs a fixed pass, each step untraced
and then traced.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench import gate
from perfbench.reference import Reference
from perfbench.tracing import Patches, Tracer
from perfbench.workloads import MAX_ITER, TOL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Setup is repeated this many times per run; setup_s is the median.
SETUP_REPS = 5
# Stop timing after the instance set during which this much wall time has
# passed, even short of MIN_SOLVES, so that a run always ends in time.
HARD_CAP_S = 120.0
# Instance sets in the fixed pass of a traced run.
TRACE_SETS = 2

SOLVER_FUNCTIONS = {
    "npdo": ("npdo", "npdo_scf", "NpdoConfig"),
    "npdo-locg": ("npdo", "npdo_locg", "NpdoConfig"),
    "nepv": ("nepv", "nepv_scf", "NepvConfig"),
    "nepv-locg": ("nepv", "nepv_locg", "NepvConfig"),
}

IMPORT_PROBE = (
    "import time, numpy\n"
    "t0 = time.perf_counter()\n"
    "import stiefelscf\n"
    "print(time.perf_counter() - t0, stiefelscf.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import stiefelscf from this checkout's ``src/``, and only from there."""
    if not (SRC / "stiefelscf" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'stiefelscf'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stiefelscf
    import stiefelscf.cli
    if Path(stiefelscf.__file__).resolve().parent != SRC / "stiefelscf":
        raise BenchError(f"imported stiefelscf from {stiefelscf.__file__}, "
                         f"not from {SRC}")
    return stiefelscf


GENERATOR = (
    "import pickle, sys\n"
    "from perfbench import harness\n"
    "from perfbench.workloads import WORKLOADS, make_pool\n"
    "name, seed, tiny, path = sys.argv[1:]\n"
    "pool = make_pool(WORKLOADS[name], int(seed), tiny == '1',\n"
    "                 harness.import_program().kernels.random_stiefel)\n"
    "with open(path, 'wb') as f:\n"
    "    pickle.dump(pool, f)\n"
)


def generate_pool(workload, seed, tiny, path):
    """Make the workload's instance pool in a child process and load it.

    At n=1000 the generator's n-by-n rotations and frames peak higher than
    the solves do; made in this process, they would set ``peak_rss_mb``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    out = subprocess.run(
        [sys.executable, "-c", GENERATOR, workload.name, str(seed),
         str(int(tiny)), str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise BenchError(f"instance generator failed: {out.stderr.strip()}")
    with open(path, "rb") as f:
        pool = pickle.load(f)
    path.unlink()
    return pool


def time_import() -> float:
    """Import time of stiefelscf in a fresh interpreter (NumPy preloaded)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"import probe failed: {out.stderr.strip()}")
    seconds, path = out.stdout.split()
    if Path(path).resolve().parent != SRC / "stiefelscf":
        raise BenchError(f"import probe loaded {path}")
    return float(seconds)


def percentile(sorted_values, q: float) -> float:
    """Linearly interpolated quantile; +inf (a failed solve) propagates."""
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if pos == lo:
        return a
    if math.isinf(b):
        return math.inf
    return a + (b - a) * (pos - lo)


class Runner:
    """Builds and solves one workload's instance pool; gates every solve."""

    def __init__(self, ss, workload, pool, workdir):
        self.ss = ss
        self.cli = ss.cli
        self.workload = workload
        self.pool = pool
        self.workdir = workdir
        self.specs = [[ss.problems.ProblemSpec(**inst.spec_kwargs())
                       for inst in s] for s in pool]
        self.loaded = None          # index of the set whose objects are built
        self.objs = []
        self.configs = {}
        for solver, (mod, _, cfg_name) in SOLVER_FUNCTIONS.items():
            module = getattr(ss, mod)
            self.configs[solver] = getattr(module, cfg_name)(
                tol=TOL, max_iter=MAX_ITER)
        self.captured = None
        self.failures = []
        self.samples = {}
        if workload.entry == "cli":
            self._prepare_cli()

    # -- setup -----------------------------------------------------------

    def load_set(self, s) -> float:
        """Build every instance of set ``s`` with ``problems.build`` and keep
        the objects for library solves, in place of the previous set's;
        returns the build wall time."""
        build = self.ss.problems.build
        self.objs = []
        t0 = perf_counter()
        objs = [build(spec) for spec in self.specs[s]]
        elapsed = perf_counter() - t0
        self.objs, self.loaded = objs, s
        return elapsed

    def _prepare_cli(self):
        self.files = []
        for s, insts in enumerate(self.pool):
            paths = []
            for inst in insts:
                path = self.workdir / f"set{s}-{inst.label}.json"
                path.write_text(json.dumps(inst.problem_document()))
                paths.append(path)
            self.files.append(paths)
        self.trace_path = self.workdir / "trace.csv"
        self.report_path = self.workdir / "report.json"
        # The CLI returns only an exit code; the solver result it computed
        # (the point, for the gate) is captured at the solver functions, for
        # the life of the process.
        capture = Patches()
        self._depth = 0
        for mod, fn_name, _ in dict.fromkeys(SOLVER_FUNCTIONS.values()):
            original = getattr(getattr(self.ss, mod), fn_name)
            capture.replace(original, self._capturing(original))

    def _capturing(self, fn):
        # Keep the outermost solver's result: *_locg solves call the plain
        # solvers for their reduced problems.
        def capture(*args, **kwargs):
            self._depth += 1
            try:
                report = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.captured = report
            return report

        return capture

    # -- solving ---------------------------------------------------------

    def pairs(self, rep):
        s = rep % len(self.pool)
        j = 0
        for i, inst in enumerate(self.pool[s]):
            for solver in inst.solvers:
                yield s, i, j, inst, solver
                j += 1

    def solve(self, s, i, j, inst, solver):
        """One timed solve.  Returns (seconds, report, check), where
        ``check()`` runs the correctness gate and returns None or the
        reason the solve failed; an exception in the solve fails it."""
        if self.workload.entry == "cli":
            return self._solve_cli(s, i, j, inst, solver)
        mod, fn_name, _ = SOLVER_FUNCTIONS[solver]
        fn = getattr(getattr(self.ss, mod), fn_name)
        obj, cfg = self.objs[i], self.configs[solver]
        t0 = perf_counter()
        try:
            report = fn(obj, inst.start, cfg)
        except Exception as exc:  # noqa: BLE001 - counted as a failed solve
            return perf_counter() - t0, None, _raised(exc)
        elapsed = perf_counter() - t0
        return elapsed, report, lambda: gate.check_library(
            self.cli, inst, obj, self.specs[s][i], solver, report)

    def _solve_cli(self, s, i, j, inst, solver):
        argv = ["run", "--problem", str(self.files[s][i]), "--solver", solver,
                "--tol", repr(TOL), "--max-iter", str(MAX_ITER),
                "--audit", "certs",
                "--seed", str(inst.start_seed),
                "--trace", str(self.trace_path),
                "--report", str(self.report_path)]
        self.report_path.unlink(missing_ok=True)
        self.captured = None
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - counted as a failed solve
            return perf_counter() - t0, None, _raised(exc)
        elapsed = perf_counter() - t0
        report = self.captured
        return elapsed, report, lambda: gate.check_cli(
            inst, code, self.report_path, report)

    def attempt(self, s, i, j, inst, solver):
        """Solve, gate and record one pair; returns (seconds, reason)."""
        elapsed, report, check = self.solve(s, i, j, inst, solver)
        reason = run_gate(check)
        self.record(inst, solver, elapsed, report, reason)
        return elapsed, reason

    def warm_up(self):
        """One untimed, unrecorded solve of the first pair."""
        if self.loaded != 0:
            self.load_set(0)
        self.solve(*next(self.pairs(0)))

    def pair_summary(self) -> dict:
        """Per (instance, solver): solve count, median ms, median outer
        iterations."""
        out = {}
        for key, rows in self.samples.items():
            iters = [it for _, it in rows if it is not None]
            out[key] = {"solves": len(rows),
                        "median_ms": statistics.median(ms for ms, _ in rows),
                        "median_iters": (statistics.median(iters)
                                         if iters else None)}
        return out

    def record(self, inst, solver, elapsed, report, reason):
        """Keep the solve's time and outer iteration count per pair, and
        the reason of a failure."""
        iters = report.num_iterations if report is not None else None
        self.samples.setdefault(f"{inst.label}/{solver}", []).append(
            (1e3 * elapsed, iters))
        if reason is not None:
            self.failures.append(f"{inst.label}/{solver}: {reason}")
            if len(self.failures) <= 5:
                print(f"perfbench: failed solve {self.failures[-1]}",
                      file=sys.stderr)


def _raised(exc):
    reason = f"{type(exc).__name__}: {exc}"
    return lambda: reason


def run_gate(check):
    """Run a solve's gate outside the timed region; a crash in the gate
    fails the solve."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - a gate crash fails the solve
        return f"gate raised {type(exc).__name__}: {exc}"


@dataclass
class Loop:
    """What a timed loop measured.  A failed solve's time is +inf in
    ``seconds`` and ``units``; its wall time still counts in the sums."""

    seconds: list = field(default_factory=list)
    units: list = field(default_factory=list)     # seconds / reference time
    passed: int = 0
    busy_s: float = 0.0
    busy_units: float = 0.0
    reference_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)


def timed_loop(runner, seconds, min_solves, reference=None, setup_reps=0):
    """Closed loop over whole instance sets, until ``seconds`` of wall time
    and ``min_solves`` solves are both reached.

    The reference kernel runs before the first solve and after each one; a
    solve's time in ref units is its wall time over the mean of the kernel
    runs on either side.  ``setup_reps`` set-up samples (import time plus
    building the next instance set) are spread over the run, at set
    boundaries, so that their median sees the same drift in machine speed
    as the solves do."""
    reference = reference or Reference()
    out = Loop()
    before = reference.run()
    start = perf_counter()
    rep = 0
    while True:
        s = rep % len(runner.pool)
        due = len(out.setup_s) < setup_reps and (
            perf_counter() - start >= len(out.setup_s) * seconds / setup_reps)
        if due:
            out.setup_s.append(time_import() + runner.load_set(s))
            before = reference.run()
        elif runner.loaded != s:
            runner.load_set(s)                          # not timed
        for s, i, j, inst, solver in runner.pairs(rep):
            # attempt() returns nothing that holds the solved objective, so
            # only one instance set is alive when the next one is built.
            elapsed, reason = runner.attempt(s, i, j, inst, solver)
            after = reference.run()
            units = elapsed / (0.5 * (before + after))
            out.reference_s.append(after)
            before = after
            out.busy_s += elapsed
            out.busy_units += units
            if reason is None:
                out.passed += 1
                out.seconds.append(elapsed)
                out.units.append(units)
            else:
                out.seconds.append(math.inf)
                out.units.append(math.inf)
        rep += 1
        wall = perf_counter() - start
        if ((wall >= seconds and len(out.seconds) >= min_solves)
                or wall >= HARD_CAP_S):
            break
    if len(out.seconds) < min_solves:
        print(f"perfbench: only {len(out.seconds)} solves within "
              f"{HARD_CAP_S} s", file=sys.stderr)
    while len(out.setup_s) < setup_reps:
        out.setup_s.append(time_import() + runner.load_set(0))
    return out


def end_to_end(runner, seconds, min_solves, setup_reps):
    """Timed closed loop over the whole pool; returns (attempted, failed,
    metrics, wall), where ``wall`` holds the same timings in wall-clock
    units, for the record."""
    reference = Reference()
    runner.warm_up()
    for _ in range(3):
        reference.run()
    loop = timed_loop(runner, seconds, min_solves, reference, setup_reps)
    units, seconds_ = sorted(loop.units), sorted(loop.seconds)
    metrics = {
        "setup_s": (statistics.median(loop.setup_s), "s"),
        "solve_ref_p50": (percentile(units, 0.5), "ref"),
        "solve_ref_p90": (percentile(units, 0.9), "ref"),
        "solves_per_kref": (1e3 * loop.passed / loop.busy_units, "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    wall = {
        "solve_ms_p50": 1e3 * percentile(seconds_, 0.5),
        "solve_ms_p90": 1e3 * percentile(seconds_, 0.9),
        "solves_per_s": loop.passed / loop.busy_s,
        "reference_ms_p50": 1e3 * statistics.median(loop.reference_s),
    }
    return len(units), len(units) - loop.passed, metrics, wall


@contextmanager
def tracing(tracer, solve_id=-1):
    """Install the tracer for the duration of the block."""
    tracer.install()
    tracer.solve_id = solve_id
    try:
        yield
    finally:
        tracer.solve_id = -1
        tracer.uninstall()


def per_layer(runner, spans_path):
    """One fixed pass over the first TRACE_SETS instance sets: build each
    set, then solve each pair once from a fixed start.  Every build and
    every solve runs untraced and then traced, back to back, so that a
    drift in machine speed does not enter ``trace.overhead_frac``.
    Returns (attempted, failed, metrics) and writes the spans to
    ``spans_path``."""
    sets = min(TRACE_SETS, len(runner.pool))
    runner.warm_up()
    tracer = Tracer()
    plain_s = traced_s = 0.0
    reasons, traced = [], []
    for rep in range(sets):
        plain_s += runner.load_set(rep)
        with tracing(tracer):
            traced_s += runner.load_set(rep)
        for s, i, j, inst, solver in runner.pairs(rep):
            elapsed, reason = runner.attempt(s, i, j, inst, solver)
            reasons.append(reason)
            plain_s += elapsed
            with tracing(tracer, solve_id=len(traced)):
                elapsed, report, check = runner.solve(s, i, j, inst, solver)
            reasons.append(run_gate(check))
            runner.record(inst, solver, elapsed, report, reasons[-1])
            traced_s += elapsed
            traced.append((solver, report))
    iters = {"npdo.outer_iters": 0, "npdo.inner_iters": 0,
             "nepv.outer_iters": 0, "nepv.inner_iters": 0}
    for solver, report in traced:
        if report is None:
            continue
        fw = gate.framework_of(solver)
        iters[f"{fw}.outer_iters"] += report.num_iterations
        iters[f"{fw}.inner_iters"] += sum(rec.inner_iters or 0
                                          for rec in report.iterations)
    metrics = tracer.layer_metrics()
    for name, value in iters.items():
        metrics[name] = (value, "count")
    total_iters = sum(iters.values())
    metrics["objective.quad_products_per_iter"] = (
        tracer.quad_products / total_iters if total_iters else 0.0, "1/iter")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "1")
    tracer.write(spans_path)
    failed = sum(reason is not None for reason in reasons)
    return len(reasons), failed, metrics
