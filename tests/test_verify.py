import json

import numpy as np
import pytest

from simplexgates.gates import CCNOT
from simplexgates.operators import constant_ccz, twisted_permutation
from simplexgates.su2 import AxisAngle, random_axis_angle
from simplexgates.tensor import embed, identity
from simplexgates import verify
from simplexgates.verify import (
    CHECKS,
    EDGE_TUPLES_3,
    CheckSpec,
    DenseDimensionError,
    UnknownCheckError,
    campaign,
    constant_provider,
    edge_residual_3,
    index_scheme,
    permutation_relation_suite,
    random_mu_assignment,
    random_su2_assignment,
    reversal_residual,
    su2_tetrahedron_provider,
    generic_tetrahedron_provider,
    vertex_residual,
)
from simplexgates.operators import CouplingConstants, SiteOperatorFamily

Z_AXIS = (0.0, 0.0, 1.0)


class TestIndexScheme:
    def test_yang_baxter_pattern(self):
        scheme = index_scheme(2)
        assert scheme.register_size == 3
        assert scheme.tuples == ((1, 2), (1, 3), (2, 3))

    def test_three_simplex_tuples(self):
        assert index_scheme(3).tuples == ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))

    def test_four_simplex_tuples(self):
        assert index_scheme(4).tuples == (
            (1, 2, 3, 4), (1, 5, 6, 7), (2, 5, 8, 9), (3, 6, 8, 10), (4, 7, 9, 10))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            index_scheme(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_combinatorial_invariants(self, n):
        scheme = index_scheme(n)
        assert len(scheme.tuples) == n + 1
        assert all(len(t) == n for t in scheme.tuples)
        counts = {}
        for t in scheme.tuples:
            for s in t:
                counts[s] = counts.get(s, 0) + 1
        assert set(counts) == set(range(1, scheme.register_size + 1))
        assert all(c == 2 for c in counts.values())
        for i, a in enumerate(scheme.tuples):
            for b in scheme.tuples[i + 1:]:
                assert len(set(a) & set(b)) == 1


class TestVertexResidual:
    def test_constant_ccz_vanishes(self):
        assert vertex_residual(3, constant_provider(constant_ccz()), [None] * 6) < 1e-12

    def test_su2_family_vanishes(self):
        rng = np.random.default_rng(31)
        provider = su2_tetrahedron_provider(alpha=1.0)
        assert vertex_residual(3, provider, random_su2_assignment(6, rng)) < 1e-11

    def test_ccnot_violates_the_equation(self):
        residual = vertex_residual(3, constant_provider(CCNOT), [None] * 6)
        assert residual >= 0.5

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError, match="assignment"):
            vertex_residual(3, constant_provider(CCNOT), [None] * 5)

    def test_dense_refused_beyond_site_limit(self):
        def provider(params):
            from simplexgates.operators import n_simplex_constant
            return n_simplex_constant(5)

        with pytest.raises(DenseDimensionError):
            vertex_residual(5, provider, [None] * 15, mode="dense")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            vertex_residual(3, constant_provider(CCNOT), [None] * 6, mode="sparse")

    def test_matrixfree_agrees_with_dense_on_solution(self):
        rng = np.random.default_rng(33)
        provider = su2_tetrahedron_provider(alpha=0.5)
        assignment = random_su2_assignment(6, rng)
        dense = vertex_residual(3, provider, assignment, mode="dense")
        free = vertex_residual(3, provider, assignment, mode="matrixfree", vectors=8, seed=5)
        assert dense < 1e-11 and free < 1e-11

    def test_matrixfree_detects_violation(self):
        free = vertex_residual(3, constant_provider(CCNOT), [None] * 6,
                               mode="matrixfree", vectors=8, seed=5)
        assert free > 0.1


def test_column_reconstruction_matches_dense_residual():
    # applying both sides to every basis vector rebuilds L - R column by column
    rng = np.random.default_rng(34)
    provider = su2_tetrahedron_provider(alpha=0.8)
    assignment = random_su2_assignment(6, rng)
    scheme = index_scheme(3)
    factors = [(provider(tuple(assignment[s - 1] for s in t)), t) for t in scheme.tuples]
    mats = [embed(op, sites, 6) for op, sites in factors]
    left = mats[0] @ mats[1] @ mats[2] @ mats[3]
    right = mats[3] @ mats[2] @ mats[1] @ mats[0]
    dense_raw = np.linalg.norm(left - right)

    from simplexgates.tensor import apply

    columns = np.zeros((64, 64), dtype=complex)
    for col in range(64):
        v = np.zeros(64, dtype=complex)
        v[col] = 1.0
        lv = v
        for op, sites in reversed(factors):
            lv = apply(op, sites, lv)
        rv = v
        for op, sites in factors:
            rv = apply(op, sites, rv)
        columns[:, col] = lv - rv
    assert abs(np.linalg.norm(columns) - dense_raw) < 1e-12


class TestEdgeResidual:
    def test_generic_family(self):
        rng = np.random.default_rng(35)
        fam = SiteOperatorFamily.seeded_random(35)
        provider = generic_tetrahedron_provider(fam, CouplingConstants.random(rng))
        assert edge_residual_3(provider, random_mu_assignment(4, rng)) < 1e-12

    def test_constant_ccz(self):
        assert edge_residual_3(constant_provider(constant_ccz()), [None] * 4) < 1e-13

    def test_identity_provider_is_exactly_zero(self):
        raw, norm = reversal_residual(
            [(identity(3), t) for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))], 4)
        assert raw == 0.0 and norm == 0.0

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError, match="4 sites"):
            edge_residual_3(constant_provider(constant_ccz()), [None] * 6)


@pytest.mark.parametrize("mode", ["dense", "matrixfree"])
def test_zero_operator_reports_zero_in_both_modes(mode):
    zero = np.zeros((8, 8), dtype=complex)
    assert reversal_residual([(zero, t) for t in EDGE_TUPLES_3], 4, mode=mode) == (0.0, 0.0)


def test_residual_invariant_under_global_site_relabeling():
    rng = np.random.default_rng(36)
    provider = su2_tetrahedron_provider(alpha=0.4)
    assignment = random_su2_assignment(6, rng)
    scheme = index_scheme(3)
    factors = [(provider(tuple(assignment[s - 1] for s in t)), t) for t in scheme.tuples]
    _, base = reversal_residual(factors, 6)

    relabel = {old: new for old, new in zip(range(1, 7), rng.permutation(6) + 1)}
    moved = [(op, tuple(relabel[s] for s in sites)) for op, sites in factors]
    _, relabeled = reversal_residual(moved, 6)
    assert abs(base - relabeled) < 1e-12


class TestPermutationRelations:
    def test_plain_permutations(self):
        p = AxisAngle(Z_AXIS, 0.0)
        report = permutation_relation_suite(p, p, p)
        assert report.verdict == "pass"
        assert report.max_residual < 1e-14

    def test_random_parameters(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            report = permutation_relation_suite(
                random_axis_angle(rng), random_axis_angle(rng), random_axis_angle(rng),
                seed=int(rng.integers(0, 2**31)))
            assert report.verdict == "pass"
            assert report.max_residual < 1e-13

    def test_braid_relation_directly(self):
        rng = np.random.default_rng(38)
        p1, p2, p3 = (random_axis_angle(rng) for _ in range(3))
        p12 = embed(twisted_permutation(p1, p2), (1, 2), 3)
        p23 = embed(twisted_permutation(p2, p3), (2, 3), 3)
        assert np.linalg.norm(p12 @ p23 @ p12 - p23 @ p12 @ p23) < 1e-13


class TestCampaign:
    def test_su2_vertex_campaign_passes(self):
        report = campaign(["su2-tetra-vertex"], trials=5, seed=42)
        assert report.verdict == "pass"
        assert report.checks[0].max_residual < 1e-11
        assert len(report.checks[0].residuals) == 5

    def test_negative_control_uses_inverted_predicate(self):
        report = campaign(["ccnot-negative-control"], trials=2, seed=0)
        assert report.verdict == "pass"
        assert report.checks[0].predicate == "residual_exceeds"
        assert min(report.checks[0].residuals) > 0.5

    def test_empty_campaign_passes(self):
        report = campaign([], trials=3, seed=0)
        assert report.verdict == "pass" and report.checks == []

    def test_unknown_check_raises(self):
        with pytest.raises(UnknownCheckError):
            campaign(["no-such-check"], trials=1, seed=0)

    def test_trials_use_derived_seeds(self):
        single = campaign(["generic-vertex"], trials=1, seed=9)
        double = campaign(["generic-vertex"], trials=2, seed=9)
        assert double.checks[0].residuals[0] == single.checks[0].residuals[0]
        shifted = campaign(["generic-vertex"], trials=1, seed=10)
        assert double.checks[0].residuals[1] == shifted.checks[0].residuals[0]

    def test_reports_are_deterministic_up_to_wall_time(self):
        a = campaign(["su2-tetra-vertex", "hadamard-bridge"], trials=3, seed=7).to_dict()
        b = campaign(["su2-tetra-vertex", "hadamard-bridge"], trials=3, seed=7).to_dict()

        def strip_ms(doc):
            doc = dict(doc)
            doc.pop("ms", None)
            doc["checks"] = [{k: v for k, v in c.items() if k != "ms"} for c in doc["checks"]]
            return doc

        assert json.dumps(strip_ms(a), sort_keys=True) == json.dumps(strip_ms(b), sort_keys=True)

    def test_nan_residual_fails_inverted_check(self, monkeypatch):
        # min([0.7, nan]) is 0.7, so a NaN trial must not slip past the threshold
        def fn(trial_seed, **_):
            return (0.7, 0.7) if trial_seed == 0 else (float("nan"), float("nan"))

        monkeypatch.setitem(verify.CHECKS, "nan-control", CheckSpec(
            name="nan-control", description="", fn=fn, tolerance=0.5, invert=True))
        assert campaign(["nan-control"], trials=2, seed=0).verdict == "fail"

    def test_nan_trial_shows_in_max_residual(self, monkeypatch):
        # max([0.7, nan]) is 0.7, which would hide the failing trial
        def fn(trial_seed, **_):
            return (0.7, 0.7) if trial_seed == 0 else (float("nan"), float("nan"))

        monkeypatch.setitem(verify.CHECKS, "nan-check", CheckSpec(
            name="nan-check", description="", fn=fn, tolerance=1.0))
        check = campaign(["nan-check"], trials=2, seed=0).checks[0]
        assert check.verdict == "fail"
        assert np.isnan(check.max_residual)

    def test_tolerance_override_can_fail_a_check(self):
        report = campaign(["su2-tetra-vertex"], trials=1, seed=0, tol=1e-30)
        assert report.verdict == "fail"

    def test_every_registered_check_passes_one_trial(self):
        report = campaign(sorted(CHECKS), trials=1, seed=123)
        failing = [c.check for c in report.checks if c.verdict != "pass"]
        assert report.verdict == "pass", f"failing checks: {failing}"

    def test_check_report_json_schema(self):
        report = campaign(["apply-vs-embed"], trials=2, seed=1)
        doc = json.loads(report.to_json())
        check = doc["checks"][0]
        for key in ("check", "n", "mode", "trials", "seed", "residuals",
                    "max_residual", "tolerance", "verdict", "ms"):
            assert key in check
        assert check["verdict"] == "pass"
