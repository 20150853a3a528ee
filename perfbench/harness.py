"""Trials, the correctness gate and the metrics of one benchmark run.

A trial is one call of ``simplexgates.cli.main`` on a workload's argument
list with a seed of its own.  Each trial is gated: the call must return 0,
the report must list the workload's checks in order, every check must pass,
and every residual must be finite and within the tolerance fixed in
``perfbench.workloads``.  A failing trial stays in every timing.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import tracing
from perfbench.workloads import (
    END_TO_END, NEGATIVE_CONTROLS, PER_LAYER, SETUP_SAMPLES, THREAD_VARS, TOLERANCES, Workload,
)

ROOT = Path(__file__).resolve().parent.parent
P90_MIN_SAMPLES = 100


@dataclass
class Trial:
    seed: int
    seconds: float
    ok: bool
    reason: str = ""
    # (check, residuals, raw residuals) per check, for bit-identity checks
    residuals: tuple = ()
    report_bytes: int = 0
    stats: dict | None = None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def trial_seed(base_seed: int, index: int) -> int:
    """Trial i of a run uses base + i, as trial i of a multi-trial campaign does."""
    return base_seed + index


def gate(workload: Workload, rc, report_text: str | None,
         tolerances: dict[str, float] = TOLERANCES) -> tuple[bool, str, tuple]:
    """Check one trial's exit code and report; return (ok, reason, residuals)."""
    if rc != 0:
        return False, f"exit code {rc}", ()
    if report_text is None:
        return False, "no report written", ()
    try:
        report = json.loads(report_text)
        checks = report["checks"]
        residuals = tuple((c["check"], tuple(c["residuals"]), tuple(c["raw_residuals"]))
                          for c in checks)
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable report: {exc!r}", ()
    names = tuple(name for name, _, _ in residuals)
    if names != workload.checks:
        return False, f"report lists checks {names}", ()
    for c in checks:
        name, norms = c["check"], c["residuals"]
        if c.get("verdict") != "pass":
            return False, f"{name}: verdict {c.get('verdict')!r}", residuals
        if len(norms) != 1 or not all(math.isfinite(r) for r in norms):
            return False, f"{name}: residuals {norms}", residuals
        if name in NEGATIVE_CONTROLS:
            threshold = NEGATIVE_CONTROLS[name]
            if c.get("predicate") != "residual_exceeds" or not min(norms) > threshold:
                return False, f"{name}: residual {min(norms)!r} not above {threshold}", residuals
        elif not max(norms) <= tolerances[name]:
            return False, f"{name}: residual {max(norms)!r} above {tolerances[name]}", residuals
    if report.get("verdict") != "pass":
        return False, f"campaign verdict {report.get('verdict')!r}", residuals
    return True, "", residuals


def run_trial(workload: Workload, seed: int, out: Path, tracer: tracing.Tracer | None = None,
              tolerances: dict[str, float] = TOLERANCES) -> Trial:
    """Run and gate one trial.  With a tracer, its per-layer totals for this
    trial are taken into ``Trial.stats``; the caller has patched the package."""
    from simplexgates import cli

    out.unlink(missing_ok=True)
    argv = workload.argv(seed, str(out))
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crashing trial is a failed trial, not a crashed run
        traceback.print_exc()
        rc = "exception"
    seconds = time.perf_counter() - start
    report_text = out.read_text() if out.is_file() else None
    ok, reason, residuals = gate(workload, rc, report_text, tolerances)
    report_bytes = len(report_text.encode()) if report_text is not None else 0
    stats = None
    if tracer is not None:
        stats = tracer.take()
    if not ok:
        print(f"trial seed {seed} failed: {reason}", file=sys.stderr)
    return Trial(seed, seconds, ok, reason, residuals, report_bytes, stats)


def timed_trials(workload: Workload, base_seed: int, seconds: float, out: Path,
                 tracer: tracing.Tracer | None = None,
                 tolerances: dict[str, float] = TOLERANCES) -> tuple[list[Trial], float]:
    """Closed loop with one client: trial i runs after trial i - 1 returns,
    until ``seconds`` have passed (at least one trial).  Returns the trials
    and the loop's wall time."""
    trials: list[Trial] = []
    start = time.perf_counter()
    while True:
        seed = trial_seed(base_seed, len(trials))
        trials.append(run_trial(workload, seed, out, tracer, tolerances))
        wall = time.perf_counter() - start
        if wall >= seconds:
            return trials, wall


def setup_seconds(workload: Workload, base_seed: int, samples: int = SETUP_SAMPLES) -> tuple[float, bool]:
    """Median wall time of fresh processes that start Python, import
    simplexgates and run one gated trial; and whether all of them passed."""
    times, ok = [], True
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
             "--workload", workload.name, "--seed", str(base_seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(f"setup probe exited with {proc.returncode}", file=sys.stderr)
            ok = False
    return statistics.median(times), ok


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Per-run directory for reports, inside the checkout."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def run_untraced(workload: Workload, base_seed: int, seconds: float,
                 tolerances: dict[str, float] = TOLERANCES,
                 setup_samples: int = SETUP_SAMPLES) -> Result:
    """End-to-end metrics: set-up time over fresh processes, then an untimed
    warm-up trial and the timed closed loop in this process."""
    setup, setup_ok = setup_seconds(workload, base_seed, setup_samples)
    with scratch_dir() as tmp:
        out = Path(tmp) / "report.json"
        warmup = run_trial(workload, trial_seed(base_seed, 0), out, tolerances=tolerances)
        trials, wall = timed_trials(workload, base_seed, seconds, out, tolerances=tolerances)
    durations_ms = [t.seconds * 1000.0 for t in trials]
    failed = sum(not t.ok for t in trials)
    values = {
        "trials_per_s": len(trials) / wall,
        "trial_ms_mean": statistics.fmean(durations_ms),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {m.name: (values[m.name], m.unit) for m in END_TO_END}
    notes = [f"samples: {len(trials)} timed trials, {setup_samples} set-up processes",
             f"fail_ratio: {failed / len(trials)!r}",
             f"trial_ms_p50: {statistics.median(durations_ms)!r} ms"]
    if len(trials) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(durations_ms, n=10)[-1]
        notes.append(f"trial_ms_p90: {p90!r} ms")
    correct = setup_ok and warmup.ok and failed == 0
    if warmup.residuals != trials[0].residuals:
        notes.append("warm-up and trial 0 ran one seed but gave different residuals")
        correct = False
    return Result(correct, len(trials), failed, metrics, notes)


def run_traced(workload: Workload, base_seed: int, seconds: float,
               tolerances: dict[str, float] = TOLERANCES) -> Result:
    """Per-layer metrics: an untraced closed loop and a traced one of the
    same seeds, half of ``seconds`` each.  Residuals must match bit for bit
    between the two, and a traced warm-up of trial 0's seed must repeat
    trial 0's computed counters exactly."""
    tracer = tracing.Tracer()
    with scratch_dir() as tmp:
        out = Path(tmp) / "report.json"
        warmup = run_trial(workload, trial_seed(base_seed, 0), out, tolerances=tolerances)
        plain, plain_wall = timed_trials(workload, base_seed, seconds / 2, out,
                                         tolerances=tolerances)
        with tracing.patched(tracer):
            traced_warmup = run_trial(workload, trial_seed(base_seed, 0), out, tracer, tolerances)
            traced, traced_wall = timed_trials(workload, base_seed, seconds / 2, out,
                                               tracer, tolerances)
    compared = min(len(plain), len(traced))
    notes = [f"samples: {len(plain)} untraced and {len(traced)} traced trials; per-layer values "
             "are means per traced trial; bytes and flops are computed",
             f"residuals compared bit for bit on {compared} seeds"]
    correct = warmup.ok and traced_warmup.ok
    for a, b in zip(plain, traced):
        if a.residuals != b.residuals:
            notes.append(f"traced trial seed {b.seed} changed its residuals")
            b.ok = False
    if tracing.counter_values(traced_warmup.stats) != tracing.counter_values(traced[0].stats):
        notes.append("computed counters differ between two traced trials of one seed")
        correct = False
    trials = plain + traced
    failed = sum(not t.ok for t in trials)
    notes.append(f"fail_ratio: {failed / len(trials)!r}")

    values = tracing.layer_metrics([t.stats for t in traced])
    values["cli.report_bytes"] = statistics.fmean(t.report_bytes for t in traced)
    wall = values["trace.wall_s"] = traced_wall / len(traced)
    values["trace.unattributed_s"] = wall - math.fsum(
        values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    values["trace.overhead_ratio"] = (len(traced) / traced_wall) / (len(plain) / plain_wall)
    ranked = sorted(tracing.LAYERS, key=lambda layer: -values[f"{layer}.self_s"])
    notes.append("largest self times: " + ", ".join(
        f"{layer} {values[f'{layer}.self_s'] / wall:.1%}" for layer in ranked[:3]))
    metrics = {m.name: (values[m.name], m.unit) for m in PER_LAYER}
    return Result(correct and failed == 0, len(trials), failed, metrics, notes)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process,
    or None when it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_revision(root: Path = ROOT) -> str | None:
    """Commit of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(base_seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = None
    return {
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "blas": blas_version,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "base_seed": base_seed,
    }
