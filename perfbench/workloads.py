"""Workloads, metrics and expected verdicts of the benchmark.

This module is the single source of ``BENCHMARK.json`` (regenerate it with
``python3 perfbench/run.py --write-spec``).  It imports nothing heavy, so
``run.py`` can read it before the BLAS thread variables are set.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 25
# Every run pins BLAS to one thread: on two CPUs threaded BLAS makes
# timings bimodal.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes timed per run for ``setup_s``; their median is reported.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single client calls ``simplexgates.cli.main``
    with ``verify <checks> --trials 1 --seed <base + i>`` and waits for the
    verdict before it sends the next call."""

    name: str
    why: str
    checks: tuple[str, ...]
    options: tuple[str, ...] = ()

    def argv(self, seed: int, out: str) -> list[str]:
        return ["verify", *self.checks, *self.options,
                "--trials", "1", "--seed", str(seed), "--out", str(out)]


WORKLOADS = (
    Workload(
        "dense-4simplex",
        "dense 10-site 4-simplex vertex check: 83% of a full campaign, bound by the "
        "1024x1024 matmul chain in verify.reversal_residual plus tensor.embed, never tensor.apply",
        ("su2-4simplex-vertex",),
    ),
    Workload(
        "matrixfree-5simplex",
        "matrix-free 15-site 5-simplex checks on 20 vectors: isolates tensor.apply and its "
        "moveaxis copies on a 512 KiB state, never tensor.embed or the dense chain",
        ("nsimplex-constant", "nsimplex-su2toffoli"),
        ("--n", "5"),
    ),
    Workload(
        "small-checks",
        "the ten 3- and 4-site checks in one call: per-call overhead (argparse, operator "
        "construction, report JSON) dominates, so per-call costs of big-register wins show here",
        ("su2-tetra-vertex", "generic-vertex", "edge-form-3", "constant-vertex",
         "hadamard-bridge", "toffoli-reduction", "unitary-families", "perm-relations",
         "ccnot-negative-control", "apply-vs-embed"),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# Expected verdicts, fixed here rather than read from the report, so that a
# loosened tolerance in the program still fails the gate.  A normalized
# residual must not exceed its check's tolerance ...
TOLERANCES = {
    "su2-tetra-vertex": 1e-11,
    "generic-vertex": 1e-11,
    "edge-form-3": 1e-11,
    "constant-vertex": 1e-12,
    "hadamard-bridge": 1e-14,
    "toffoli-reduction": 1e-14,
    "unitary-families": 1e-13,
    "perm-relations": 1e-13,
    "su2-4simplex-vertex": 1e-10,
    "nsimplex-constant": 1e-10,
    "nsimplex-su2toffoli": 1e-10,
    "apply-vs-embed": 1e-13,
}
# ... except for negative controls, whose residual must exceed the threshold.
NEGATIVE_CONTROLS = {"ccnot-negative-control": 0.5}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def spec(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# Timings: on a shared 2-CPU VM the host switched this process's speed by
# about 40% every few seconds, so the trial times of small-checks are
# bimodal and their median jumped between the two modes from run to run
# (quartile distance 30% of the median over ten runs).  The mean moves
# smoothly with the share of slow seconds, so the benchmark reports the mean
# trial time and prints the median and p90 as notes.  Whole runs still moved
# by up to 25% (quartile distance 8-17% over ten runs), so every timing has
# the largest bound allowed, 0.25.  Peak memory repeats within 1%.
# fail_ratio is the result line's failed / attempted rather than a metric,
# because a metric may never read 0.
END_TO_END = (
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("trial_ms_mean", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

# Layers in the order the trace reports them.  Every layer reports calls,
# inclusive seconds and self seconds per traced trial.  What each should move:
# - tensor.embed: trials_per_s and peak_rss_mb on dense-4simplex, trial_ms_mean
#   on small-checks; no calls on matrixfree-5simplex.
# - tensor.apply: trials_per_s on matrixfree-5simplex; no calls on dense-4simplex.
# - verify.reversal_residual self time (the dense matmul chain and the norms):
#   trials_per_s on dense-4simplex.
# - tensor.kron, operators, su2, gates, cli self time (argparse, report JSON):
#   trial_ms_mean on small-checks.
LAYERS = (
    "cli",
    "verify.campaign",
    "verify.reversal_residual",
    "verify.sampling",
    "tensor.embed",
    "tensor.apply",
    "tensor.kron",
    "operators",
    "su2",
    "gates",
)

# Counters computed from call arguments, per traced trial.
COUNTERS = (
    Metric("tensor.embed.bytes", "B", "lower"),
    Metric("tensor.apply.flops", "flop", "lower"),
    Metric("tensor.apply.bytes", "B", "lower"),
    Metric("tensor.apply.flop_per_byte", "flop/B", "higher"),
    Metric("verify.chain_flops", "flop", "lower"),
    Metric("operators.repeat_ratio", "ratio", "lower"),
    Metric("cli.report_bytes", "B", "lower"),
)

TRACE_TOTALS = (
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.unattributed_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "higher"),
)

PER_LAYER = tuple(
    Metric(f"{layer}.{field}", unit, "lower")
    for layer in LAYERS
    for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
) + COUNTERS + TRACE_TOTALS


def spec() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [m.spec() for m in END_TO_END],
        "per_layer": [m.spec() for m in PER_LAYER],
    }
