"""Benchmark of ``simplexgates verify``: one command for every workload.

    python3 perfbench/run.py --workload dense-4simplex --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --write-spec

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload runs in a process of its own, with BLAS pinned to one thread,
as a closed loop with one client.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced loop.  Every metric
is printed with its unit, then the environment, and as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--write-spec`` writes ``BENCHMARK.json`` from ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pin_blas_threads() -> None:
    """Set one BLAS thread.  BLAS reads the variables when numpy loads it,
    so numpy must not be imported yet."""
    from perfbench.workloads import THREAD_VARS

    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy was imported before the BLAS thread "
                         "variables were set; the thread count cannot be pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import simplexgates from this checkout's src/ and check the BLAS pinning held."""
    src = ROOT / "src"
    if not (src / "simplexgates" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simplexgates sources under {src}")
    sys.path.insert(0, str(src))
    import simplexgates

    if src.resolve() not in Path(simplexgates.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported simplexgates from {simplexgates.__file__}, "
                         f"not from {src}")
    from perfbench import harness

    threads = harness.blas_threads()
    if threads not in (None, 1):
        raise SystemExit(f"perfbench: BLAS runs {threads} threads, expected 1")
    return harness


def print_result(workload: str, trace: int, result, env: dict) -> None:
    print(f"workload {workload}  trace {trace}")
    for note in result.notes:
        print(f"  {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value!r} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result.summary()))


def run_all(args) -> int:
    """Every workload in a fresh process; the last line merges their results
    with metric names prefixed by the workload."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {w.name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{w.name}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    from perfbench.workloads import BY_NAME, RUN_SECONDS, spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=0, help="base seed; trial i uses base + i")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured time of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    pin_blas_threads()
    harness = import_program()
    workload = BY_NAME[args.workload]
    if args.setup_probe:
        with harness.scratch_dir() as tmp:
            trial = harness.run_trial(workload, args.seed, Path(tmp) / "report.json")
        return 0 if trial.ok else 1
    env = harness.environment(args.seed)
    if args.trace:
        result = harness.run_traced(workload, args.seed, args.seconds)
    else:
        result = harness.run_untraced(workload, args.seed, args.seconds)
    print_result(workload.name, args.trace, result, env)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    raise SystemExit(main())
