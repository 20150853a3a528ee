import argparse
import inspect
import json

import numpy as np
import pytest

from simplexgates import operators
from simplexgates.cli import FAMILIES, main, parse_angle, parse_axis, parse_complex
from simplexgates.gates import n_toffoli
from simplexgates.tensor import load_operator
from simplexgates.verify import CHECKS


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
        assert np.array_equal(load_operator(out), n_toffoli(3))

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

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["build", "no-such-family"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_builds_with_defaults(self, family, tmp_path, capsys):
        out = tmp_path / f"{family}.json"
        code = main(["build", family, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_operator(out).ndim == 2


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
    assert called == {
        "generic_tetrahedron",
        "su2_tetrahedron",
        "toffoli_family",
        "general_toffoli",
        "constant_ccz",
        "constant_alpha",
        "constant_alpha_beta",
        "constant_linear",
        "cz_yangbaxter",
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

    @pytest.mark.parametrize("args", [
        ["su2-tetra-vertex", "--trials", "0"],
        ["nsimplex-constant", "--mode", "matrixfree", "--vectors", "0", "--trials", "1"],
        ["nsimplex-constant", "--n", "1", "--trials", "1"],
    ], ids=["zero-trials", "zero-vectors", "order-one"])
    def test_vacuous_run_is_usage_error(self, capsys, args):
        assert main(["verify", *args]) == 2
        assert "must be at least" in capsys.readouterr().err

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

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMPLEX_SEED", "77")
        code = main(["verify", "apply-vs-embed", "--trials", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["seed"] == 77


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
