import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from simplexgates import cli, operators, tensor, verify
from simplexgates.cli import FAMILIES, main, parse_angle, parse_axis, parse_complex
from simplexgates.gates import n_toffoli
from simplexgates.verify import CHECKS

from reference import read_operator


class TestParsers:
    @pytest.mark.parametrize("text,expected", [
        ("0.5", 0.5),
        ("pi", np.pi),
        ("pi/2", np.pi / 2),
        ("-pi/4", -np.pi / 4),
        ("3pi/4", 3 * np.pi / 4),
        ("2*pi/3", 2 * np.pi / 3),
        ("-1.25", -1.25),
    ])
    def test_angles(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_angle_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_angle("two pies")

    def test_axes(self):
        assert parse_axis("z") == (0.0, 0.0, 1.0)
        assert parse_axis("1,0,0") == (1.0, 0.0, 0.0)
        nearly = parse_axis("0.9999999,0,0")
        assert abs(np.linalg.norm(nearly) - 1.0) < 1e-12

    def test_axis_rejects_far_from_unit(self):
        with pytest.raises(Exception):
            parse_axis("1,1,0")
        with pytest.raises(Exception):
            parse_axis("1,0")

    @pytest.mark.parametrize("parse,text", [
        (parse_angle, "pi/0"),
        (parse_angle, "nan"),
        (parse_angle, "-inf"),
        (parse_angle, "1e400"),
        (parse_axis, "nan,0,0"),
        (parse_axis, "inf,0,0"),
        (parse_complex, "inf"),
        (parse_complex, "nan"),
        (parse_complex, "1+nanj"),
    ])
    def test_non_finite_is_rejected(self, parse, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse(text)

    def test_complex(self):
        assert parse_complex("1+0.5j") == 1 + 0.5j
        assert parse_complex("-2") == -2
        with pytest.raises(Exception):
            parse_complex("one")


class TestBuild:
    def test_toffoli_family_writes_ccnot(self, tmp_path, capsys):
        out = tmp_path / "op.json"
        code = main(["build", "toffoli-family", "--alpha", "0", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "distance to CCNOT: 0.0" in captured
        assert np.array_equal(read_operator(out), n_toffoli(3))

    def test_two_control_4simplex_misses_the_gate(self, capsys):
        code = main(["build", "su2-4simplex", "--variant", "two-control", "--special-point"])
        captured = capsys.readouterr().out
        assert code == 0
        distance = float(captured.split("distance to NTOFFOLI(4):")[1].split()[0])
        assert distance > 0.5

    def test_three_control_4simplex_hits_the_gate(self, capsys):
        code = main(["build", "su2-4simplex", "--variant", "three-control", "--special-point"])
        captured = capsys.readouterr().out
        assert code == 0
        distance = float(captured.split("distance to NTOFFOLI(4):")[1].split()[0])
        assert distance < 1e-14

    def test_ntoffoli_defaults_hit_the_gate(self, capsys):
        code = main(["build", "nsimplex-su2toffoli", "--n", "4"])
        captured = capsys.readouterr().out
        assert code == 0
        distance = float(captured.split("distance to NTOFFOLI(4):")[1].split()[0])
        assert distance < 1e-14

    def test_degenerate_parameters_exit_one(self, capsys):
        code = main(["build", "general-toffoli", "--theta-i", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DegenerateEigenvalues" in captured.err

    @pytest.mark.parametrize("argv", [
        ["constant-linear", "--a", "1e308", "--b", "1e308"],
        ["generic-tetrahedron", "--family-kind", "pauli-exp", "--mu-i", "1e308"],
    ], ids=["linear-overflow", "generic-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_operator_is_a_construction_failure(self, argv, tmp_path, capsys):
        # NaN and Infinity are not JSON: refused before any property is
        # printed, in one error line and no numpy warning
        out = tmp_path / "op.json"
        code = main(["build", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: operator has non-finite entries\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_finite_operator_whose_gram_product_overflows(self, tmp_path, capsys):
        # a a+ overflows to inf + nan j on its diagonal: the deviation reads inf, not nan
        out = tmp_path / "op.json"
        code = main(["build", "constant-linear", "--a", "1e200", "--b", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "unitary: no (deviation inf)" in captured.out
        assert captured.err == ""
        assert np.array_equal(read_operator(out), 1e200 * np.eye(8))

    @pytest.mark.parametrize("family", ["nsimplex-constant", "nsimplex-su2toffoli"])
    def test_beyond_site_limit_is_usage_error(self, family, capsys):
        # 13 sites would be a 1 GiB matrix: refused while parsing, before
        # any array is allocated
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["build", family, "--n", "13"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert "at most 12 sites" in capsys.readouterr().err
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("couplings", ["1,2", "1,2,3,4,5,6,x"])
    def test_bad_couplings_are_usage_error(self, couplings, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "generic-tetrahedron", "--couplings", couplings])
        assert exc.value.code == 2
        assert "--couplings" in capsys.readouterr().err

    def test_couplings_reach_the_operator(self, tmp_path, capsys):
        out = tmp_path / "op.json"
        code = main(["build", "generic-tetrahedron", "--couplings", "0,0,0,0,0,0,0",
                     "--out", str(out)])
        assert code == 0
        assert np.array_equal(read_operator(out), np.eye(8))

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    @pytest.mark.parametrize("family", ["nsimplex-constant", "nsimplex-su2toffoli"])
    def test_below_two_sites_is_usage_error(self, family, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", family, "--n", n])
        assert exc.value.code == 2
        assert f"at least 2 sites, got {n}" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["build", "no-such-family"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("target", ["missing/op.json", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_out_is_usage_error_before_building(self, target, tmp_path,
                                                          capsys, monkeypatch):
        monkeypatch.setattr(operators, "toffoli_family", lambda alpha: pytest.fail("built"))
        with pytest.raises(SystemExit) as exc:
            main(["build", "toffoli-family", "--out", str(tmp_path / target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_builds_with_defaults(self, family, tmp_path, capsys):
        out = tmp_path / f"{family}.json"
        code = main(["build", family, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert read_operator(out).ndim == 2


@pytest.mark.parametrize("argv", [["nsimplex-constant", "--n", "4"],
                                  ["constant-linear", "--a", "1.5", "--b", "2j"]])
def test_build_forms_one_product_for_deviation_and_verdict(monkeypatch, capsys, argv):
    # the printed deviation and the unitary verdict come from one a a+
    deviations = []

    def counting(a):
        deviation, unitary = unitarity(a)
        deviations.append(deviation)
        return deviation, unitary

    unitarity = tensor._unitarity
    monkeypatch.setattr(tensor, "_unitarity", counting)
    monkeypatch.setattr(cli, "_unitarity", counting)
    assert main(["build", *argv]) == 0
    assert len(deviations) == 1
    assert f"(deviation {deviations[0]:.3e})" in capsys.readouterr().out


def test_every_constructor_is_called_by_a_default_build(monkeypatch, capsys):
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, value in list(vars(operators).items()):
        if (inspect.isfunction(value) and value.__module__ == operators.__name__
                and not name.startswith("_")):
            monkeypatch.setattr(operators, name, recording(name, value))
    for family in FAMILIES:
        assert main(["build", family]) == 0, capsys.readouterr().err
    assert main(["build", "generic-tetrahedron", "--family-kind", "pauli-exp"]) == 0
    assert called == {
        "pauli_exp",
        "seeded_random",
        "generic_tetrahedron",
        "su2_tetrahedron",
        "toffoli_family",
        "general_toffoli",
        "constant_alpha_beta",
        "constant_linear",
        "su2_4simplex",
        "n_simplex_constant",
        "n_simplex_su2_toffoli",
        "twisted_permutation",
        "conjugated_site_operator",
    }


class TestVerify:
    def test_su2_vertex_passes(self, capsys):
        code = main(["verify", "su2-tetra-vertex", "--trials", "5", "--seed", "42"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "pass"
        assert doc["checks"][0]["max_residual"] < 1e-11

    def test_negative_control_passes(self, capsys):
        code = main(["verify", "ccnot-negative-control", "--trials", "1"])
        assert code == 0

    def test_matrixfree_nsimplex(self, capsys):
        code = main(["verify", "nsimplex-constant", "--n", "4", "--mode", "matrixfree",
                     "--trials", "2", "--vectors", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["checks"][0]["n"] == 4
        assert doc["checks"][0]["mode"] == "matrixfree"

    def test_only_the_n_aware_checks_default_to_matrixfree(self, capsys):
        n_aware = [name for name, spec in CHECKS.items() if spec.supports_n]
        assert main(["verify", *n_aware, "--n", "3", "--trials", "1"]) == 0
        modes = [c["mode"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert modes == ["matrixfree"] * len(n_aware)
        others = [name for name in CHECKS if name not in n_aware]
        assert main(["verify", *others, "--trials", "1"]) == 0
        modes = [c["mode"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert modes == ["dense"] * len(others)

    def test_a_check_named_twice_gets_two_reports_of_its_trials(self, capsys):
        code = main(["verify", "nsimplex-constant", "nsimplex-constant", "--n", "3",
                     "--trials", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [c["check"] for c in doc["checks"]] == ["nsimplex-constant"] * 2
        assert [len(c["residuals"]) for c in doc["checks"]] == [2, 2]

    def test_unknown_check_exits_two(self, capsys):
        code = main(["verify", "no-such-check"])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err

    def test_dense_beyond_limit_is_usage_error(self, capsys):
        code = main(["verify", "nsimplex-constant", "--n", "5", "--mode", "dense",
                     "--trials", "1"])
        assert code == 2

    def test_matrixfree_beyond_limit_is_usage_error(self, capsys):
        # 28 sites: one state vector alone would take 4 GiB
        code = main(["verify", "nsimplex-constant", "--n", "7", "--trials", "1"])
        assert code == 2
        assert "at most 24 sites" in capsys.readouterr().err

    def test_register_ceiling_is_checked_before_the_scheme_is_built(self, capsys, monkeypatch):
        # index_scheme is cubic in n: at n = 100000 it would run for hours
        def refuse(n):
            raise AssertionError(f"index_scheme({n}) called")

        monkeypatch.setattr(verify, "index_scheme", refuse)
        assert main(["verify", "nsimplex-constant", "--n", "100000"]) == 2
        assert "at most 24 sites" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["su2-tetra-vertex", "--trials", "0"],
        ["nsimplex-constant", "--mode", "matrixfree", "--vectors", "0", "--trials", "1"],
        ["nsimplex-constant", "--n", "1", "--trials", "1"],
    ], ids=["zero-trials", "zero-vectors", "order-one"])
    def test_vacuous_run_is_usage_error(self, capsys, args):
        assert main(["verify", *args]) == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "su2-tetra-vertex", "--trials", "1", "--tol", tol])
        assert exc.value.code == 2
        assert "not a finite non-negative number" in capsys.readouterr().err

    def test_failure_exits_one(self, capsys):
        code = main(["verify", "su2-tetra-vertex", "--trials", "1", "--tol", "1e-30"])
        assert code == 1

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "hadamard-bridge", "--trials", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["config"]["checks"] == ["hadamard-bridge"]

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_out_is_usage_error_before_any_trial(self, target, tmp_path,
                                                           capsys, monkeypatch):
        calls = []

        def record(trial_seed, **kwargs):
            calls.append(trial_seed)
            return [(0.0, 0.0)]

        spec = CHECKS["hadamard-bridge"]
        monkeypatch.setitem(CHECKS, spec.name, dataclasses.replace(spec, fn=record))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "hadamard-bridge", "--out", str(tmp_path / target)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert calls == []

    def test_reports_reproducible_except_wall_time(self, capsys):
        main(["verify", "generic-vertex", "--trials", "3", "--seed", "11"])
        first = json.loads(capsys.readouterr().out)
        main(["verify", "generic-vertex", "--trials", "3", "--seed", "11"])
        second = json.loads(capsys.readouterr().out)

        def strip(doc):
            doc = dict(doc)
            doc.pop("ms", None)
            doc["checks"] = [{k: v for k, v in c.items() if k != "ms"} for c in doc["checks"]]
            return json.dumps(doc, sort_keys=True)

        assert strip(first) == strip(second)

    @pytest.mark.parametrize("argv", [
        ["verify", "hadamard-bridge", "perm-relations", "--trials", "2", "--seed", "4"],
        ["verify", "su2-tetra-vertex", "nsimplex-constant", "--n", "3", "--trials", "1",
         "--seed", "2", "--mode", "matrixfree", "--vectors", "2", "--tol", "1e-9"],
    ], ids=["dense", "matrixfree"])
    def test_report_text_is_the_asdict_dump(self, argv, tmp_path, capsys, monkeypatch):
        # the report is written from its fields without asdict's deep copy;
        # the text must be the dump of asdict plus the config, byte for byte
        reports, run = [], verify.campaign

        def keep(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(verify, "campaign", keep)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        doc = dataclasses.asdict(reports[0])
        args = vars(cli.build_parser().parse_args([*argv, "--out", str(out)]))
        doc["config"] = {k: v for k, v in args.items() if k != "func"}
        assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("first", [
        ["verify", "constant-vertex", "--trials", "1", "--seed", "3", "--mode", "matrixfree",
         "--vectors", "2", "--tol", "0.5"],
        ["build", "toffoli-family", "--alpha", "pi"],
    ], ids=["verify", "build"])
    def test_one_parser_keeps_no_arguments_between_calls(self, first, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        assert main(first) == 0
        capsys.readouterr()
        monkeypatch.setenv("SIMPLEX_SEED", "5")
        assert main(["verify", "constant-vertex", "--trials", "1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"command": "verify", "checks": ["constant-vertex"], "n": None,
                          "trials": 1, "seed": 5, "tol": None, "mode": None,
                          "vectors": verify.DEFAULT_VECTORS, "out": None}

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMPLEX_SEED", "77")
        code = main(["verify", "apply-vs-embed", "--trials", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["seed"] == 77

    def test_non_integer_env_seed_is_usage_error_only_where_used(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMPLEX_SEED", "abc")
        assert main(["list"]) == 0
        capsys.readouterr()
        assert main(["verify", "apply-vs-embed", "--trials", "1"]) == 2
        assert "SIMPLEX_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert main(["verify", "apply-vs-embed", "--trials", "1", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    @pytest.mark.parametrize("args", [
        ["su2-4simplex-vertex", "nope", "--trials", "3"],
        ["su2-4simplex-vertex", "nsimplex-constant", "--n", "7", "--trials", "3"],
    ], ids=["unknown-name", "register-ceiling"])
    def test_every_check_is_resolved_before_any_trial(self, capsys, monkeypatch, args):
        calls = []

        def record(trial_seed, **kwargs):
            calls.append(trial_seed)
            return 0.0, 0.0

        spec = CHECKS["su2-4simplex-vertex"]
        monkeypatch.setitem(CHECKS, spec.name, dataclasses.replace(spec, fn=record))
        assert main(["verify", *args]) == 2
        assert calls == []

    @pytest.mark.parametrize("args, env, line", [
        (["no-such-check"], None,
         "unknown check 'no-such-check'; see 'simplexgates list --checks'"),
        (["nsimplex-constant", "--n", "5", "--mode", "dense"], None,
         "dense mode supports at most 12 sites, got 15; use matrixfree"),
        (["nsimplex-constant", "--n", "7"], None,
         "matrixfree mode supports at most 24 sites, got 28"),
        (["nsimplex-constant", "--n", "1"], None, "n must be at least 2, got 1"),
        (["su2-tetra-vertex", "--trials", "0"], None, "trials must be at least 1, got 0"),
        (["su2-tetra-vertex", "--vectors", "0"], None, "vectors must be at least 1, got 0"),
        (["su2-tetra-vertex", "--seed", "-3"], None, "seed must be at least 0, got -3"),
        (["su2-tetra-vertex"], "abc", "SIMPLEX_SEED must be an integer, got 'abc'"),
        (["su2-tetra-vertex"], "-1", "seed must be at least 0, got -1"),
    ], ids=["unknown-name", "dense-ceiling", "matrixfree-ceiling", "order-one", "zero-trials",
            "zero-vectors", "negative-seed", "non-integer-env-seed", "negative-env-seed"])
    def test_every_refusal_is_one_stderr_line_and_exit_two(self, capsys, monkeypatch,
                                                           args, env, line):
        if env is None:
            monkeypatch.delenv("SIMPLEX_SEED", raising=False)
        else:
            monkeypatch.setenv("SIMPLEX_SEED", env)
        assert main(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {line}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("args, env, seed", [
        (["--seed", "-3"], None, -3),
        ([], "-1", -1),
    ], ids=["flag", "env"])
    def test_negative_seed_is_usage_error(self, capsys, monkeypatch, args, env, seed):
        calls = []

        def record(trial_seed, **kwargs):
            calls.append(trial_seed)
            return [(0.0, 0.0)]

        spec = CHECKS["hadamard-bridge"]
        monkeypatch.setitem(CHECKS, spec.name, dataclasses.replace(spec, fn=record))
        if env is None:
            monkeypatch.delenv("SIMPLEX_SEED", raising=False)
        else:
            monkeypatch.setenv("SIMPLEX_SEED", env)
        assert main(["verify", "hadamard-bridge", "--trials", "1", *args]) == 2
        assert f"error: seed must be at least 0, got {seed}" in capsys.readouterr().err
        assert calls == []


class TestList:
    def test_families_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("toffoli-family", "constant-ccz", "su2-4simplex"):
            assert name in out

    def test_checks_listed(self, capsys):
        assert main(["list", "--checks"]) == 0
        out = capsys.readouterr().out
        for name in ("su2-tetra-vertex", "edge-form-3", "perm-relations"):
            assert name in out
        assert "toffoli-family" not in out

    def test_json_catalog_complete(self, capsys):
        assert main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["families"]) == set(FAMILIES)
        assert set(doc["checks"]) == set(CHECKS)

    def test_json_checks_catalog_holds_only_the_checks(self, capsys):
        assert main(["list", "--json", "--checks"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["checks"]
        assert set(doc["checks"]) == set(CHECKS)


def _checkout_env():
    # the package directory's parent goes first on the path, so a child
    # process imports this checkout whether or not it is installed
    root = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}


class TestEntryPoints:
    def test_module_runs_as_a_script(self):
        done = subprocess.run(
            [sys.executable, "-m", "simplexgates.cli", "verify", "ccnot-negative-control",
             "--trials", "1"], env=_checkout_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["verdict"] == "pass"

    @pytest.mark.parametrize("argv,code", [
        (["verify", "perm-relations", "--trials", "1"], 0),
        (["verify", "perm-relations", "--trials", "1", "--tol", "1e-300"], 1),
        (["list"], 0), (["list", "--checks"], 0), (["list", "--json"], 0),
        (["list", "--json", "--checks"], 0), (["build", "toffoli-family"], 0),
        (["build", "nsimplex-su2toffoli", "--n", "5"], 0),
    ])
    def test_output_to_a_closed_pipe_keeps_the_exit_code(self, monkeypatch, argv, code):
        # a reader that left before the output: every write raises BrokenPipeError
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            with pytest.raises(BrokenPipeError):
                print("{}", flush=True)
            assert main(argv) == code
            print("{}", flush=True)  # now into devnull, as the flush at exit would be

    def test_build_to_a_closed_pipe_still_writes_its_file(self, monkeypatch, tmp_path):
        out = tmp_path / "op.json"
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["build", "toffoli-family", "--out", str(out)]) == 0
        assert np.array_equal(read_operator(out), operators.toffoli_family(0.0))

    @pytest.mark.parametrize("argv", [["list", "--json"], ["list", "--checks"]])
    def test_reader_that_closes_after_one_line(self, argv):
        # as `simplexgates list --json | head -1`: no traceback, exit 0
        child = subprocess.Popen([sys.executable, "-m", "simplexgates.cli", *argv],
                                 env=_checkout_env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 0, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,code", [
        (["verify", "ccnot-negative-control", "--trials", "1"], 0),
        (["verify", "ccnot-negative-control", "--trials", "0"], 2),
    ])
    def test_entry_exits_with_the_code_main_returns(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["simplexgates", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == main(argv) == code
