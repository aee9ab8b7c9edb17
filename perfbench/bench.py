"""Measure one workload: repeated set-up, timed repetitions, checks, metrics.

An untraced run (``trace=False``) repeats the pipeline until the time budget
is spent and reports the end-to-end metrics: the wall time of one
repetition, the set-up time and the peak resident memory. A traced run
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones, the tracing overhead and the counters of the checks.
Every repetition is checked, and must repeat the first one exactly.

The benchmark runs on shared machines whose CPUs switch, every second or so,
between full speed and about half speed as neighbours come and go, and whose
full speed itself drifts by some 10% from minute to minute. So before each
timed call the process moves to the CPU that runs a fixed calibration kernel
fastest, and the kernel is timed again on that CPU after the call. A call
counts as quiet when both kernel times are within ``QUIET_FACTOR`` of the
fastest kernel time of the run; the others ran while the CPU changed speed.
``wall_s`` is the lower quartile over the quiet repetitions of the wall time
scaled to the nominal machine speed (times ``NOMINAL_CALIBRATION_S`` over the
slower kernel time around it). ``setup_s`` adds the unscaled lower quartiles
of the quiet imports and set-ups; scaling did not steady the import times,
which are dominated by starting an interpreter. Every wall time and kernel
time is in the run record.
"""

from __future__ import annotations

import glob
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
CALIBRATION_SAMPLES = 5
MAX_PROBED_CPUS = 4
QUIET_FACTOR = 1.25
MIN_QUIET = 3
# Calibration kernel time at full speed on the 2-core x86_64 machine the
# benchmark was built on (Python 3.11.7, numpy 2.4.6).
NOMINAL_CALIBRATION_S = 3.3e-3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Counters of the workload checks; 0 where the layer does not run.
COUNTERS = (
    ("fisher.skipped.domain", "count"),
    ("fisher.skipped.equilibrium", "count"),
    ("fisher.bound_slack_min", "1/s2"),
    ("datagen.envelope_exits", "count"),
    ("training.grad_check_rel_err", "frac"),
    ("estimator.guard_saturation", "frac"),
)


def calibration_kernel() -> float:
    """Fixed work with the library's instruction mix: scalar math and
    small-matrix numpy calls driven from Python."""
    a = np.arange(36.0).reshape(6, 6) / 36.0
    acc = 0.0
    for i in range(1500):
        v = a @ a[i % 6]
        acc += math.atan(float(v[0]) * 1e-3) + float(np.dot(v, v))
    return acc


def calibration_s() -> float:
    """Median time of the calibration kernel over a few calls."""
    times = []
    for _ in range(CALIBRATION_SAMPLES):
        start = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class Timing:
    wall: float
    calibration: float  # the slower of the kernel times before and after


class QuietClock:
    """Times calls on the fastest CPU and tells quiet calls from disturbed ones."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)[:MAX_PROBED_CPUS]
        self.calibrations = []

    def _fastest_cpu(self) -> float:
        """Pin the process to the CPU with the fastest kernel time; return it."""
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            seconds = calibration_s()
            if best is None or seconds < best[0]:
                best = (seconds, cpu)
        os.sched_setaffinity(0, {best[1]})
        return best[0]

    def time(self, fn, *args):
        """(result, :class:`Timing`) of ``fn(*args)``."""
        try:
            before = self._fastest_cpu()
            start = perf_counter()
            result = fn(*args)
            wall = perf_counter() - start
            after = calibration_s()
        finally:
            os.sched_setaffinity(0, self.allowed)
        self.calibrations += [before, after]
        return result, Timing(wall, max(before, after))

    def quiet_lower_quartile(self, timings, scaled: bool = False) -> float:
        """Lower quartile of the quiet calls' wall times, or of all calls when
        fewer than ``MIN_QUIET`` are quiet. Interference only ever slows a
        call down, so the low end of the distribution is the program's cost.
        ``scaled`` rescales each wall time to the nominal machine speed."""
        limit = QUIET_FACTOR * min(self.calibrations)
        quiet = [t for t in timings if t.calibration <= limit]
        if len(quiet) < MIN_QUIET:
            quiet = timings
        walls = [t.wall * (NOMINAL_CALIBRATION_S / t.calibration if scaled else 1.0)
                 for t in quiet]
        return statistics.quantiles(walls, n=4)[0] if len(walls) > 1 else walls[0]


def fresh_import_s() -> float:
    """Time to import numpy and fisherdyn in a new interpreter."""
    code = ("import sys, time; start = time.perf_counter(); "
            f"sys.path[:0] = {[SRC, HERE]!r}; import bench; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def per_layer_specs() -> list:
    return tracing.metric_specs() + list(COUNTERS)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str,
            reference: dict, size=None) -> tuple:
    """Run workload ``name``; returns (result, details).

    ``result`` is the benchmark's result object; ``details`` holds the
    per-repetition wall times, the quality values and the check counters.
    Raises :class:`workloads.CheckError` when an output is wrong.
    """
    wl = workloads.WORKLOADS[name]
    size = size or wl.full
    clock = QuietClock()
    imports = [clock.time(fresh_import_s)[1] for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, timing = clock.time(wl.setup, seed, size, workdir)
        setups.append(timing)

    tracer = tracing.Tracer() if trace else None
    untraced, traced = [], []
    first = None
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            with tracer.installed():
                out, timing = clock.time(wl.run, inputs, tracer.system)
            tracer.end_repetition(timing.wall)
            traced.append(timing)
        else:
            out, timing = clock.time(wl.run, inputs, workloads.same_system)
            untraced.append(timing)
        summary = wl.check(inputs, out)
        if first is None:
            first = (out["quality"], summary)
        workloads.require((out["quality"], summary) == first,
                          "a repetition did not repeat the first one exactly")
        if (tracer is None or traced) and perf_counter() + timing.wall > deadline:
            break
    workloads.check_reference(name, workdir, reference)

    quality, summary = first
    reps = len(untraced) + len(traced)
    low = clock.quiet_lower_quartile
    if tracer is None:
        values = {"wall_s": low(untraced, scaled=True),
                  "setup_s": low(imports) + low(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        specs = END_TO_END
    else:
        overhead = low(traced, scaled=True) / low(untraced, scaled=True) - 1.0
        values = {**tracer.metrics(overhead), **dict.fromkeys(dict(COUNTERS), 0),
                  **summary["counters"]}
        specs = per_layer_specs()
    result = {"correct": True, "attempted": reps * summary["attempted"],
              "failed": reps * summary["failed"],
              "metrics": {n: {"value": values[n], "unit": u} for n, u in specs}}
    details = {"calibration_limit_s": QUIET_FACTOR * min(clock.calibrations),
               "repetitions": [(t.wall, t.calibration) for t in untraced],
               "traced_repetitions": [(t.wall, t.calibration) for t in traced],
               "imports": [(t.wall, t.calibration) for t in imports],
               "setups": [(t.wall, t.calibration) for t in setups],
               "quality": quality, "counters": summary["counters"],
               "absent_layers": tracer.absent if tracer else []}
    return result, details


def run_record(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Provenance of one run: code, toolchain, machine and workload."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    sources = glob.glob(os.path.join(root, "src", "fisherdyn", "**", "*.py"),
                        recursive=True)
    src_lines = 0
    for path in sources:
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": _commit(os.path.join(root, ".git")),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "src_lines": src_lines}


def _commit(git_dir: str) -> str:
    """HEAD's commit id read from the .git directory, or "unknown"."""
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git_dir, ref)):
            with open(os.path.join(git_dir, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
