import sys

import pytest

import simplexgates  # noqa: F401  (loads every module the trace patches)
from perfbench import harness, tracing
from perfbench.workloads import BY_NAME


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans_and_counts_outermost_inclusive_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outer = tracer.enter("operators")            # t = 0
    clock.now = 2.0
    child = tracer.enter("tensor.kron")          # t = 2
    clock.now = 5.0
    tracer.exit(child)                           # kron 3 s
    clock.now = 6.0
    mid = tracer.enter("su2")                    # t = 6
    clock.now = 7.0
    inner = tracer.enter("operators")            # t = 7, nested in its own layer
    clock.now = 8.0
    tracer.exit(inner)                           # inner operators 1 s
    clock.now = 9.0
    tracer.exit(mid)                             # su2 3 s, 1 s of it in operators
    clock.now = 10.0
    tracer.exit(outer)                           # outer operators 10 s
    stats = tracer.take()

    assert stats["operators"].calls == 2
    assert stats["operators"].s == 10.0
    assert stats["operators"].self_s == (10.0 - 3.0 - 3.0) + 1.0
    assert stats["tensor.kron"].self_s == 3.0
    assert stats["su2"].s == 3.0
    assert stats["su2"].self_s == 2.0
    assert sum(st.self_s for st in stats.values()) == 10.0


def test_spans_unwind_when_the_traced_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    wrapped = tracing._wrap(tracer, "gates", boom, None)
    with pytest.raises(ValueError):
        wrapped()
    stats = tracer.take()
    assert stats["gates"].calls == 1
    assert stats["gates"].self_s == 1.0


def _package_snapshot():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "simplexgates" or name.startswith("simplexgates.")}


def test_patching_restores_every_attribute_after_a_trial_raises():
    from simplexgates import cli, operators, tensor, verify

    before = _package_snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracing.patched(tracer):
            assert verify.embed is not before["simplexgates.verify"]["embed"]
            assert operators.kron is not before["simplexgates.operators"]["kron"]
            assert cli.main is not before["simplexgates.cli"]["main"]
            tensor.embed([[1, 0], [0, 1]], (5,), 2)  # site outside the register
    after = _package_snapshot()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert tracer.stats["tensor.embed"].calls == 1


def test_trace_reaches_names_bound_by_import_and_providers(tmp_path):
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        trial = harness.run_trial(BY_NAME["small-checks"], 3, tmp_path / "r.json", tracer)
    assert trial.ok, trial.reason
    stats = trial.stats
    for layer in tracing.LAYERS:
        assert stats[layer].calls > 0, layer


def test_computed_counters_repeat_exactly_for_one_seed(tmp_path):
    workload = BY_NAME["small-checks"]
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        first = harness.run_trial(workload, 11, tmp_path / "r.json", tracer)
        second = harness.run_trial(workload, 11, tmp_path / "r.json", tracer)
    assert tracing.counter_values(first.stats) == tracing.counter_values(second.stats)
    assert first.residuals == second.residuals
