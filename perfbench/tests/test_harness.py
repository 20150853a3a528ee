import json
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, run
from perfbench.workloads import BY_NAME, END_TO_END, PER_LAYER, TOLERANCES, spec

SMALL = BY_NAME["small-checks"]


def test_base_seed_changes_the_inputs_but_not_the_metric_names():
    argv_a = [SMALL.argv(harness.trial_seed(0, i), "r.json") for i in range(3)]
    argv_b = [SMALL.argv(harness.trial_seed(7, i), "r.json") for i in range(3)]
    assert argv_a != argv_b
    a = harness.run_untraced(SMALL, 0, 0.2, setup_samples=1)
    b = harness.run_untraced(SMALL, 7, 0.2, setup_samples=1)
    assert a.correct and b.correct, (a.notes, b.notes)
    assert list(a.metrics) == list(b.metrics) == [m.name for m in END_TO_END]
    ta = harness.run_traced(SMALL, 0, 0.4)
    tb = harness.run_traced(SMALL, 7, 0.4)
    assert ta.correct and tb.correct, (ta.notes, tb.notes)
    assert list(ta.metrics) == list(tb.metrics) == [m.name for m in PER_LAYER]


def test_a_forced_failing_trial_raises_fail_ratio():
    impossible = {name: -1.0 for name in TOLERANCES}
    result = harness.run_untraced(SMALL, 0, 0.2, tolerances=impossible, setup_samples=1)
    assert not result.correct
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert "fail_ratio: 1.0" in result.notes


def test_gate_rejects_a_passing_verdict_with_an_out_of_range_residual():
    workload = BY_NAME["dense-4simplex"]

    def report(residual, verdict="pass"):
        check = {"check": "su2-4simplex-vertex", "residuals": [residual],
                 "raw_residuals": [residual], "verdict": verdict,
                 "predicate": "residual_within"}
        return json.dumps({"checks": [check], "verdict": verdict})

    assert harness.gate(workload, 0, report(1e-16))[0]
    assert not harness.gate(workload, 0, report(1e-3))[0]
    assert not harness.gate(workload, 0, report(float("nan")))[0]
    assert not harness.gate(workload, 0, report(1e-16, verdict="fail"))[0]
    assert not harness.gate(workload, 1, report(1e-16))[0]
    assert not harness.gate(workload, 0, None)[0]
    assert not harness.gate(workload, 0, "{")[0]


def test_pinning_fails_loudly_once_numpy_is_imported():
    import numpy  # noqa: F401

    with pytest.raises(SystemExit, match="numpy was imported"):
        run.pin_blas_threads()


def test_spec_matches_the_committed_benchmark_file():
    assert json.loads((harness.ROOT / "BENCHMARK.json").read_text()) == spec()


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
