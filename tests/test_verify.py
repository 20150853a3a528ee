import copy
import dataclasses
import inspect
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from simplexgates.gates import CCNOT, local_conjugate
from simplexgates.operators import (CouplingConstants, generic_tetrahedron, n_simplex_constant,
                                    seeded_random, su2_4simplex, su2_tetrahedron,
                                    twisted_permutation)
from simplexgates.su2 import AxisAngle, random_axis_angle
from simplexgates.tensor import (apply, apply_product, embed, identity, random_operator,
                                random_state, random_unitary)
from simplexgates import gates, operators, su2, tensor, verify
from simplexgates.verify import (
    CHECKS,
    CampaignArgumentError,
    CheckSpec,
    campaign,
    edge_scheme,
    index_scheme,
    random_mu_assignment,
    random_su2_assignment,
    reversal_residual,
    slot_equation,
)

from reference import (TWELVE_SITE_TUPLES, dot_norm, pin_patterns, pinned_columns, product,
                       site_equation)

Z_AXIS = (0.0, 0.0, 1.0)
# the registered checks whose every equation has diagonal factors alone
DIAGONAL_CHECKS = ("constant-vertex", "nsimplex-constant")


class TestIndexScheme:
    def test_yang_baxter_pattern(self):
        scheme = index_scheme(2)
        assert max(map(max, scheme)) == 3
        assert scheme == ((1, 2), (1, 3), (2, 3))

    def test_three_simplex_tuples(self):
        assert index_scheme(3) == ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))

    def test_four_simplex_tuples(self):
        assert index_scheme(4) == (
            (1, 2, 3, 4), (1, 5, 6, 7), (2, 5, 8, 9), (3, 6, 8, 10), (4, 7, 9, 10))

    def test_three_simplex_edge_tuples(self):
        assert edge_scheme(3) == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))

    def test_rejects_small_order(self):
        for scheme in (index_scheme, edge_scheme):
            with pytest.raises(ValueError, match="simplex order must be at least 2, got 1"):
                scheme(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_combinatorial_invariants(self, n):
        scheme = index_scheme(n)
        assert len(scheme) == n + 1
        assert all(len(t) == n for t in scheme)
        counts = {}
        for t in scheme:
            for s in t:
                counts[s] = counts.get(s, 0) + 1
        assert set(counts) == set(range(1, n * (n + 1) // 2 + 1))
        assert all(c == 2 for c in counts.values())
        for i, a in enumerate(scheme):
            for b in scheme[i + 1:]:
                assert len(set(a) & set(b)) == 1
        if n <= 6:
            # the edge form: n+1 placements of n sites on n+1 sites, any two sharing n-1
            edges = edge_scheme(n)
            assert len(edges) == n + 1 and all(len(t) == n for t in edges)
            assert {s for t in edges for s in t} == set(range(1, n + 2))
            for i, a in enumerate(edges):
                for b in edges[i + 1:]:
                    assert len(set(a) & set(b)) == n - 1


class TestVertexResidual:
    def test_constant_ccz_vanishes(self):
        assert reversal_residual(*site_equation(
            index_scheme(3), lambda _: n_simplex_constant(3), [None] * 6))[1] < 1e-12

    def test_su2_family_vanishes(self):
        rng = np.random.default_rng(31)
        assert reversal_residual(*site_equation(
            index_scheme(3), lambda ps: su2_tetrahedron(*ps, alpha=1.0),
            random_su2_assignment(6, rng)))[1] < 1e-11

    def test_ccnot_violates_the_equation(self):
        residual = reversal_residual(*site_equation(
            index_scheme(3), lambda _: CCNOT, [None] * 6))[1]
        assert residual >= 0.5

    @pytest.mark.parametrize("site", [0])
    def test_site_outside_the_register_is_refused_before_the_provider(self, site):
        # the register is the largest site, 6, so only a site below 1 lies outside it
        def provider(params):
            raise AssertionError("provider called")

        tuples = ((1, 2, 3), (1, 6, site))
        with pytest.raises(ValueError, match=f"site {site} outside register 1..6"):
            slot_equation(tuples, provider, list(range(6)))

    def test_dense_refused_beyond_site_limit(self):
        def provider(params):
            return n_simplex_constant(5)

        with pytest.raises(CampaignArgumentError,
                           match="dense mode supports at most 12 sites, got 15; use matrixfree"):
            reversal_residual(*site_equation(
                index_scheme(5), provider, [None] * 15), mode="dense")[1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            reversal_residual(*site_equation(
                index_scheme(3), lambda _: CCNOT, [None] * 6), mode="sparse")[1]

    def test_matrixfree_agrees_with_dense_on_solution(self):
        rng = np.random.default_rng(33)
        assignment = random_su2_assignment(6, rng)
        equation = site_equation(index_scheme(3), lambda ps: su2_tetrahedron(*ps, alpha=0.5),
                                 assignment)
        dense = reversal_residual(*equation, mode="dense")[1]
        free = reversal_residual(*equation, mode="matrixfree", vectors=8, seed=5)[1]
        assert dense < 1e-11 and free < 1e-11

    def test_matrixfree_detects_violation(self):
        free = reversal_residual(
            *site_equation(index_scheme(3), lambda _: CCNOT, [None] * 6),
            mode="matrixfree", vectors=8, seed=5)[1]
        assert free > 0.1


def test_column_reconstruction_matches_dense_residual():
    # applying both sides to every basis vector rebuilds L - R column by column
    rng = np.random.default_rng(34)
    assignment = random_su2_assignment(6, rng)
    scheme = index_scheme(3)
    factors = [(su2_tetrahedron(*(assignment[s - 1] for s in t), alpha=0.8), t)
               for t in scheme]
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
        fam = seeded_random(35)
        couplings = CouplingConstants(*random_mu_assignment(7, rng))
        assert reversal_residual(*site_equation(
            edge_scheme(3), lambda mus: generic_tetrahedron(fam, mus, couplings),
            random_mu_assignment(4, rng)))[1] < 1e-12

    def test_constant_ccz(self):
        assert reversal_residual(*site_equation(
            edge_scheme(3), lambda _: n_simplex_constant(3), [None] * 4))[1] < 1e-13

    def test_identity_provider_is_exactly_zero(self):
        raw, norm = reversal_residual(
            [(identity(3), t) for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))], 4)
        assert raw == 0.0 and norm == 0.0


class TestSlotEquation:
    @pytest.mark.parametrize("tuples, size, provider", [
        (index_scheme(3), 6, lambda ps: su2_tetrahedron(*ps, alpha=0.7)),
        (edge_scheme(3), 4, lambda ps: su2_tetrahedron(*ps, alpha=2.1)),
        (index_scheme(4), 10, lambda ps: su2_4simplex(*ps, alpha=0.4)),
    ], ids=["vertex-3", "edge-3", "vertex-4"])
    def test_each_slot_reading_its_site_gives_the_per_site_factors(self, tuples, size, provider):
        # the register is the scheme's largest site, and each factor is the
        # provider's matrix at its own sites' parameters
        assignment = random_su2_assignment(size, np.random.default_rng(size))
        got = slot_equation(tuples, provider, [assignment[s - 1] for t in tuples for s in t])
        want = [(provider(tuple(assignment[s - 1] for s in t)), t) for t in tuples]
        assert got.register_size == size
        assert ([(op.tobytes(), sites) for op, sites in got.factors]
                == [(op.tobytes(), sites) for op, sites in want])

    @pytest.mark.parametrize("count", [0, 6, 11, 13])
    def test_a_wrong_parameter_count_is_refused_before_the_provider(self, count):
        def provider(params):
            raise AssertionError("provider called")

        with pytest.raises(ValueError, match=f"params must cover all 12 slots, got {count}$"):
            slot_equation(index_scheme(3), provider, list(range(count)))

    @pytest.mark.parametrize("tuples, message", [
        (((1, 2, 3), (1, 3, 3)), r"duplicate site in \(1, 3, 3\)"),
        ((), "a scheme needs placements of at least one site, got"),
        (((1, 2), ()), "a scheme needs placements of at least one site, got"),
    ], ids=["repeated-site", "no-tuples", "empty-tuple"])
    def test_a_bad_scheme_is_refused_before_the_provider(self, tuples, message):
        def provider(params):
            raise AssertionError("provider called")

        with pytest.raises(ValueError, match=message):
            slot_equation(tuples, provider, [None] * sum(map(len, tuples)))

    @pytest.mark.parametrize("tuples", [index_scheme(3), index_scheme(4), edge_scheme(3)],
                             ids=["vertex-3", "vertex-4", "edge-3"])
    def test_each_slot_reads_its_sites_draw(self, tuples):
        # the sampler is asked for one draw per site of the register, or one
        # per slot for a per-slot twin, and slot i of site s reads draw s - 1 or i
        def sample(count, rng):
            asked.append(count)
            return [f"draw {i}" for i in range(count)]

        asked, slots = [], [s for t in tuples for s in t]
        assert verify._drawn(tuples, False, sample, None) == [f"draw {s - 1}" for s in slots]
        assert verify._drawn(tuples, True, sample, None) == [f"draw {i}" for i in range(len(slots))]
        assert asked == [max(slots), len(slots)]


class TestPerSlotTwins:
    """A twin evaluates its check's family with one parameter per
    (placement, slot): noncommuting members violate that equation, and an
    abelian family satisfies it, so the twin's inverted verdict shows which
    one the family is."""

    GENERIC = ["generic-vertex", "edge-form-3"]

    @pytest.mark.parametrize("family, check, twin", [
        (None, "pass", "pass"),
        (lambda mu: np.diag([1, complex(mu)]), "pass", "fail"),
        (lambda mu: np.full((2, 2), np.nan, dtype=complex), "fail", "fail"),
    ], ids=["seeded-random", "abelian", "nan"])
    def test_the_twins_tell_the_site_operator_family(self, monkeypatch, family, check, twin):
        if family is not None:
            monkeypatch.setattr(operators, "seeded_random", lambda seed=0: family)
        names = self.GENERIC + [f"{name}-per-slot" for name in self.GENERIC]
        report = campaign(names, trials=3, seed=0)
        assert [c.verdict for c in report.checks] == [check, check, twin, twin]

    @pytest.mark.parametrize("n, mode", [(2, "matrixfree"), (3, "matrixfree"), (4, "matrixfree"),
                                         (5, "matrixfree"), (2, "dense"), (3, "dense"),
                                         (4, "dense")])
    def test_the_nsimplex_twin_passes_at_each_order_and_mode(self, n, mode):
        report = campaign(["nsimplex-su2toffoli-per-slot"], trials=2, seed=0, n=n, mode=mode)
        check = report.checks[0]
        assert (check.n, check.mode, check.verdict) == (n, mode, "pass")
        assert min(check.residuals) > 1e-3


@pytest.mark.parametrize("mode", ["dense", "matrixfree"])
def test_zero_operator_reports_zero_in_both_modes(mode):
    zero = np.zeros((8, 8), dtype=complex)
    assert reversal_residual([(zero, t) for t in edge_scheme(3)], 4, mode=mode) == (0.0, 0.0)


def test_residual_checks_each_factor_once_per_side(monkeypatch):
    # the factors are the same for every vector and on both sides, so each
    # is checked once, not once per side (8) or per vector (4 x 2 x 20 = 160)
    equation = CHECKS["su2-tetra-vertex"].fn(0, n=3)[0]
    calls = []
    checked = tensor._validated_sites

    def counting(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(tensor, "_validated_sites", counting)
    reversal_residual(*equation, "matrixfree", 20, 0)
    assert len(calls) == len(equation.factors)


@pytest.mark.parametrize("mode", verify.MODES)
@pytest.mark.parametrize("sites, message", [((2, 2), "duplicate"), ((1, 5), "outside register")])
def test_residual_refuses_a_bad_factor(mode, sites, message):
    factors = [(identity(2), (1, 2)), (identity(2), sites)]
    with pytest.raises(ValueError, match=message):
        reversal_residual(factors, 4, mode)


@pytest.mark.parametrize("mode", verify.MODES)
@pytest.mark.parametrize("register_size", [0, -1])
def test_residual_refuses_an_empty_register(mode, register_size):
    # an empty register would compare two empty products and pass as (0, 0)
    with pytest.raises(CampaignArgumentError,
                       match=f"register must have at least one site, got {register_size}"):
        reversal_residual([], register_size, mode)


@pytest.mark.parametrize("mode", verify.MODES)
@pytest.mark.parametrize("factors", [[], [(identity(2), (1, 2))]], ids=["empty", "one-factor"])
def test_residual_refuses_fewer_than_two_factors(mode, factors):
    # fewer than two factors are their own reversal and would pass as (0, 0)
    with pytest.raises(CampaignArgumentError,
                       match=f"at least two factors, got {len(factors)}"):
        reversal_residual(factors, 3, mode)


_TWO_FACTORS = [(identity(1), (1,)), (identity(1), (2,))]


@pytest.mark.parametrize("call, message", [
    (lambda: campaign(["no-such-check"], trials=1),
     "^unknown check 'no-such-check'; see 'simplexgates list --checks'$"),
    (lambda: campaign(["nsimplex-constant"], trials=1, n=5, mode="dense"),
     "^dense mode supports at most 12 sites, got 15; use matrixfree$"),
    (lambda: reversal_residual(_TWO_FACTORS, 13, "dense"),
     "^dense mode supports at most 12 sites, got 13; use matrixfree$"),
    (lambda: campaign(["nsimplex-constant"], trials=1, n=7),
     "^matrixfree mode supports at most 24 sites, got 28$"),
    (lambda: reversal_residual(_TWO_FACTORS, 25, "matrixfree"),
     "^matrixfree mode supports at most 24 sites, got 25$"),
    (lambda: campaign(["hadamard-bridge"], trials=1, mode="sparse"),
     "^mode must be 'dense' or 'matrixfree', got 'sparse'$"),
    (lambda: reversal_residual(_TWO_FACTORS, 2, "sparse"),
     "^mode must be 'dense' or 'matrixfree', got 'sparse'$"),
    (lambda: reversal_residual(_TWO_FACTORS[:1], 2),
     "^an equation needs at least two factors, got 1$"),
    (lambda: reversal_residual([], 0), "^register must have at least one site, got 0$"),
    (lambda: reversal_residual(_TWO_FACTORS, 2, "matrixfree", vectors=0),
     "^vectors must be at least 1, got 0$"),
], ids=["unknown-name", "campaign-dense-ceiling", "residual-dense-ceiling",
        "campaign-matrixfree-ceiling", "residual-matrixfree-ceiling", "campaign-unknown-mode",
        "residual-unknown-mode", "one-factor", "no-sites", "residual-zero-vectors"])
def test_every_refusal_is_one_value_error_with_its_whole_message(call, message):
    with pytest.raises(CampaignArgumentError, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("order", [3, 4], ids=["6-sites", "10-sites"])
def test_matrixfree_residual_matches_per_factor_apply(order):
    # the product kernel against one apply per factor on the same vectors
    rng = np.random.default_rng(37 + order)
    scheme = index_scheme(order)
    factors = [(random_unitary(len(t), rng), t) for t in scheme]
    size, vectors, seed = order * (order + 1) // 2, 4, 38
    vector_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    raws, lefts = [], []
    for _ in range(vectors):
        v = tensor._fill_state(np.empty(2**size, dtype=complex), vector_rng)
        left, right = v, v
        for op, sites in reversed(factors):
            left = apply(op, sites, left)
        for op, sites in factors:
            right = apply(op, sites, right)
        raws.append(np.linalg.norm(left - right))
        lefts.append(np.linalg.norm(left))
    raw, norm = reversal_residual(factors, size, mode="matrixfree", vectors=vectors, seed=seed)
    assert max(raws) > 0.1  # random unitaries do not solve the equation
    # root-sum-of-squares over the vectors, raw over its sqrt(2**N / vectors) scale
    rss = math.sqrt(sum(r * r for r in raws))
    assert abs(raw / math.sqrt(2**size / vectors) - rss) < 1e-14
    assert abs(norm - rss / math.sqrt(sum(x * x for x in lefts))) < 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_matrix_free_residual_estimates_the_dense_one(seed):
    # 20 sign probes x with E[x x+] = 2**-N sum to estimates of both dense
    # numbers (Hutchinson's trace estimator); on the violated 10-site
    # per-slot equation, seeds 0-19 differed from dense by 2.7% at most, so
    # 8% holds with a 3x margin.  The worst per-vector ratio read raw 0.53-0.58
    # against dense's 16-18 on seeds 0-3, and a raw without its
    # sqrt(2**N / vectors) scale 2.3-2.5
    equation = CHECKS["nsimplex-su2toffoli-per-slot"].fn(seed, n=4)[0]
    dense = reversal_residual(*equation, "dense")
    free = reversal_residual(*equation, "matrixfree", 20, seed)
    assert dense[1] > 0.1
    for got, want in zip(free, dense):
        assert abs(got - want) <= 0.08 * want


@pytest.mark.parametrize("vectors", [1, 3, 20])
def test_sign_probes_give_the_dense_residual_of_a_diagonal_difference(vectors):
    # for L - R a diagonal matrix times a permutation, ||(L - R) x||**2 =
    # 2**-N ||L - R||_F**2 for every sign probe x, and likewise for L, so
    # matrix-free raw and normalized are dense's to rounding; a raw without its
    # sqrt(2**N / vectors) scale, or amplitudes of 2**(-N / 2), would miss by
    # sqrt(2**N / vectors) or sqrt(2).  The X on site 7 that both sides share
    # is that permutation: it keeps the sides off the one-item path of
    # diagonal factors alone.  20 vectors of 11 sites are split between two
    # threads given two CPUs
    rng = np.random.default_rng(81)

    def diagonal(k):
        return np.diag(rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k))

    n = 11
    lhs = tensor._placed([(diagonal(2), (1, 5)), (diagonal(3), (2, 4, 11)), (su2.X, (7,))], n)
    rhs = tensor._placed([(diagonal(1), (3,)), (diagonal(2), (11, 6)), (su2.X, (7,))], n)
    dense = tensor._distance(lhs, rhs, n)
    free = tensor._distance(lhs, rhs, n, vectors, seed=4)
    assert dense[1] > 0.1
    for got, want in zip(free, dense):
        assert abs(got - want) <= 1e-12 * want


def _embedded_diagonal(diagonal, sites, n):
    # the diagonal of embed(np.diag(diagonal), sites, n): entry j reads the
    # bits of j on ``sites`` in slot order, site 1 the most significant bit
    j = np.arange(2**n)
    k = len(sites)
    return diagonal[sum(((j >> (n - s)) & 1) << (k - 1 - i) for i, s in enumerate(sites))]


class TestDiagonalEquations:
    """An equation whose placed factors are all diagonal runs one item in
    either mode, the all-ones vector, whose norms are ||L - R||_F and
    ||L||_F exactly: no probe, no column blocks, no second thread."""

    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    @pytest.mark.parametrize("n", [6, 10, 15])
    def test_both_modes_give_the_norms_of_the_diagonals(self, n, mode):
        # L and R differ, so both numbers are of order 1; the reference
        # multiplies the factors' embedded diagonals.  A sign probe in place
        # of the ones would read 2**(-n / 2) of the raw residual, and a scale
        # of sqrt(2**n) in place of 1 would read 2**(n / 2) times it
        rng = np.random.default_rng(90 + n)
        sides, want = [], []
        for _ in range(2):
            tuples = [tuple(int(s) + 1 for s in rng.permutation(n)[:k]) for k in (1, 2, 3, 3)]
            diagonals = [rng.standard_normal(2 ** len(t)) + 1j * rng.standard_normal(2 ** len(t))
                         for t in tuples]
            sides.append(tensor._placed([(np.diag(d), t) for d, t in zip(diagonals, tuples)], n))
            want.append(np.prod([_embedded_diagonal(d, t, n) for d, t in zip(diagonals, tuples)],
                                axis=0))
        raw = np.linalg.norm(want[0] - want[1])
        norm = raw / np.linalg.norm(want[0])
        got = tensor._distance(*sides, n, None if mode == "dense" else 20, 4)
        assert norm > 0.1
        assert abs(got[0] - raw) <= 1e-12 * raw
        assert abs(got[1] - norm) <= 1e-12 * norm

    @pytest.mark.parametrize("n", [3, 4])
    def test_dense_and_matrixfree_give_the_same_bits(self, n):
        # rounding-level residuals, which probes and column blocks round apart
        dense, free = (campaign(DIAGONAL_CHECKS, trials=3, seed=3, n=n, mode=mode, vectors=5)
                       for mode in ("dense", "matrixfree"))
        for d, f in zip(dense.checks, free.checks):
            assert d.verdict == f.verdict == "pass"
            assert (d.residuals, d.raw_residuals) == (f.residuals, f.raw_residuals)

    def test_a_diagonal_equation_draws_no_probe_and_stays_on_the_calling_thread(
            self, monkeypatch):
        # 20 vectors of 15 sites would draw 20 probes on two threads; the
        # exact product compiles no program, replays no side and allocates
        # nothing state-sized beyond the calling thread's kept buffers
        replayed = _on_cpus(monkeypatch, 2)
        drawn = TestSharedDraws._counted_draws(monkeypatch)
        threads, programs, halves, program = set(), [], tensor._halves, tensor._program

        def spied(items, size, run):
            def recorded(*args):
                threads.add(threading.get_ident())
                return run(*args)
            return halves(items, size, recorded)

        monkeypatch.setattr(tensor, "_halves", spied)
        monkeypatch.setattr(tensor, "_program", lambda *a, **k: programs.append(a) or program(*a, **k))
        factors, size = CHECKS["nsimplex-constant"].fn(0, n=5)[0]
        lhs = tensor._placed(factors, size)
        tensor._distance(lhs, lhs[::-1], size, 20, 0)
        tracemalloc.start()
        try:
            _, norm = tensor._distance(lhs, lhs[::-1], size, 20, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn == [] and programs == [] and replayed == set()
        assert threads == {threading.get_ident()}
        assert peak < 16 * 2**size // 8  # bytes: an eighth of one complex state
        assert norm < 1e-15

    def test_one_non_diagonal_factor_draws_every_probe(self, monkeypatch):
        drawn = TestSharedDraws._counted_draws(monkeypatch)
        factors, size = CHECKS["nsimplex-constant"].fn(0, n=5)[0]
        reversal_residual([*factors, (su2.X, (1,))], size, "matrixfree", 3, 0)
        assert len(drawn) == 3

    @pytest.mark.parametrize("entry", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    def test_a_non_finite_diagonal_entry_fails(self, monkeypatch, mode, entry):
        # inf - inf and nan read nan; a nan over ||L||_F, inf or nan, stays nan
        member = np.diag([1.0] * 7 + [entry]).astype(complex)
        with np.errstate(invalid="ignore"):
            got = reversal_residual([(member, t) for t in index_scheme(3)], 6, mode, 2)
            _patch_phased_constant(monkeypatch, member)
            check = campaign(["constant-vertex"], trials=2, mode=mode, vectors=2).checks[0]
        assert not any(map(math.isfinite, got))
        assert check.verdict == "fail"
        assert not np.isfinite(check.max_residual)


def _haar_equation(tuples, rng):
    # Haar-random factors on the placement tuples (a vertex scheme's, say)
    # solve nothing, so their dense residual is of order 1 and a misplaced axis changes it
    size = max(s for t in tuples for s in t)
    factors = [(random_unitary(len(t), rng), t) for t in tuples]
    _, base = reversal_residual(factors, size)
    assert base > 0.1
    return factors, size, base


# Each invariance below holds in exact arithmetic for the dense residual, so
# these three tests check the kernel's axis bookkeeping with no reference matrix.
def test_residual_invariant_under_global_site_relabeling():
    cases = [(36 + order, index_scheme(order)) for order in (3, 4)]
    for seed, tuples in cases + [(48, TWELVE_SITE_TUPLES)]:
        rng = np.random.default_rng(seed)
        factors, size, base = _haar_equation(tuples, rng)
        relabel = dict(zip(range(1, size + 1), rng.permutation(size) + 1))
        moved = [(op, tuple(relabel[s] for s in sites)) for op, sites in factors]
        _, relabeled = reversal_residual(moved, size)
        assert abs(base - relabeled) <= 1e-12 * base


@pytest.mark.parametrize("seed", range(4))
def test_state_path_invariant_under_global_site_relabeling(seed):
    # relabeling site s as perm[s - 1] + 1 moves axis s - 1 of the state to
    # axis perm[s - 1]; dense and diagonal factors, arity 1-4 on 8 sites,
    # applied to a 3-column block with permuted axes give the permuted result
    n, rng = 8, np.random.default_rng(60 + seed)
    factors = []
    for _ in range(8):
        k = int(rng.integers(1, 5))
        op = random_operator(k, rng)
        sites = tuple(int(s) + 1 for s in rng.permutation(n)[:k])
        factors.append((np.diag(np.diagonal(op)) if rng.integers(2) else op, sites))
    perm = rng.permutation(n)
    moved = [(op, tuple(int(perm[s - 1]) + 1 for s in sites)) for op, sites in factors]

    def permuted(block):
        return np.moveaxis(block.reshape((2,) * n + (-1,)), range(n), perm).reshape(block.shape)

    block = np.stack([random_state(n, rng) for _ in range(3)], axis=1)
    want = permuted(apply_product(factors, block))
    got = apply_product(moved, permuted(block))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_residual_invariant_under_per_site_conjugation():
    # with W the product of one unitary per site, each factor F on sites t
    # becomes W_t F W_t+, so both sides of the equation become W side W+
    for order in (3, 4):
        rng = np.random.default_rng(46 + order)
        factors, size, base = _haar_equation(index_scheme(order), rng)
        frames = [random_unitary(1, rng) for _ in range(size)]
        rotated = [(local_conjugate(op, [frames[s - 1] for s in sites]), sites)
                   for op, sites in factors]
        _, conjugated = reversal_residual(rotated, size)
        assert abs(base - conjugated) <= 1e-12 * base


def test_residual_of_the_adjoint_equation():
    # daggered factors in reverse order make each side of the equation the
    # adjoint of the same side before, so the difference is the old one's adjoint
    for order in (3, 4):
        rng = np.random.default_rng(56 + order)
        factors, size, base = _haar_equation(index_scheme(order), rng)
        adjoint = [(op.conj().T, sites) for op, sites in reversed(factors)]
        _, daggered = reversal_residual(adjoint, size)
        assert abs(base - daggered) <= 1e-12 * base


def _reference_residual(lhs, rhs, n, mode, vectors, seed):
    # the same residual from the public kernel: whole matrices or vectors
    # in site order, subtracted, then the roots of the squared norms summed
    # in item order, raw times sqrt(2**n / vectors).  A dense residual's
    # items are the column blocks of the sites the kernel pins (from 8 sites
    # on; below, the whole matrix), each norm one dot over its float64 view
    if mode == "dense":
        pins = tensor._pins(n, *(tuple(tuple(f[1]) for f in side) for side in (lhs, rhs)))
        left, right = product(lhs, n), product(rhs, n)
        items = [(pinned_columns(left, n, p), pinned_columns(right, n, p))
                 for p in pin_patterns(pins)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        probes = [tensor._fill_state(np.empty(2**n, dtype=complex), rng) for _ in range(vectors)]
        items = [(apply_product(lhs, v), apply_product(rhs, v)) for v in probes]
    pairs = [(dot_norm(left - right), dot_norm(left)) for left, right in items]
    raw, scale = (math.sqrt(sum(x * x for x in norms)) for norms in zip(*pairs))
    factor = 1.0 if mode == "dense" else math.sqrt(2**n / vectors)
    return raw * factor, raw / scale if scale > 0 else raw * factor


def _reversal_cases():
    spec = CHECKS["su2-4simplex-vertex"]
    cases = [pytest.param(eq.factors, eq.register_size, id=f"su2-4simplex-{i}")
             for i, eq in enumerate(spec.fn(3, n=4))]
    rng = np.random.default_rng(4)
    # sites 5 and 6 are on no factor
    cases.append(pytest.param([(random_operator(3, rng), (3, 1, 2)),
                               (random_operator(2, rng), (2, 4))], 6, id="untouched-sites"))
    return cases


def _relation_cases():
    rng = np.random.default_rng(4)
    p12 = (twisted_permutation(random_axis_angle(rng), random_axis_angle(rng)), (1, 2))
    # site 1 only on the left; sites 4 and 5 on neither side; a side of one
    # factor or none is a relation to evaluate, not its own reversal
    return [pytest.param([p12, p12], [], 2, id="involution-vs-empty"),
            pytest.param([(random_operator(3, rng), (3, 1, 2))],
                         [(random_operator(2, rng), (2, 3))], 5, id="untouched-sites"),
            pytest.param([], [(CCNOT, (3, 1, 2))], 3, id="empty-vs-one")]


class TestProductResidual:
    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    @pytest.mark.parametrize("factors, n", _reversal_cases())
    def test_bit_identical_to_the_public_kernel(self, mode, factors, n):
        expected = _reference_residual(factors, factors[::-1], n, mode, vectors=3, seed=11)
        assert reversal_residual(factors, n, mode, vectors=3, seed=11) == expected

    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    @pytest.mark.parametrize("lhs, rhs, n", _relation_cases())
    def test_relation_distance_matches_product(self, mode, lhs, rhs, n):
        assert reversal_residual(lhs, n, mode, 3, 11, rhs=rhs) == _reference_residual(
            lhs, rhs, n, mode, vectors=3, seed=11)

    @pytest.mark.parametrize("factors, n", _reversal_cases())
    def test_relations_and_equations_share_the_dense_distance(self, factors, n):
        assert reversal_residual(factors, n, "dense", rhs=factors[::-1]) == reversal_residual(
            factors, n, "dense")

    def test_blocked_dense_residual_matches_the_whole_matrix_norm(self):
        # Haar-random 4-site unitaries do not solve the 10-site equation, so
        # every column block adds an O(1) share to both norms
        rng = np.random.default_rng(61)
        factors = [(random_unitary(4, rng), t) for t in index_scheme(4)]
        left, right = product(factors, 10), product(factors[::-1], 10)
        raw = np.linalg.norm(left - right)
        norm = raw / np.linalg.norm(left)
        assert norm > 0.1
        got_raw, got_norm = reversal_residual(factors, 10)
        assert abs(got_raw - raw) <= 1e-14 * raw
        assert abs(got_norm - norm) <= 1e-14 * norm


def _on_cpus(monkeypatch, count):
    # the CPU set tensor._halves reads, and the threads its blocks then run on
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    threads, side_norms = set(), tensor._side_norms

    def spy(*args, **kwargs):
        threads.add(threading.get_ident())
        return side_norms(*args, **kwargs)

    monkeypatch.setattr(tensor, "_side_norms", spy)
    return threads


def _on_one_and_two_cpus(monkeypatch, run):
    results = []
    for count in (1, 2):
        with monkeypatch.context() as patch:
            threads = _on_cpus(patch, count)
            results.append(run())
        # one thread per residual, on top of the caller's, and only given two CPUs
        assert threading.get_ident() in threads and (len(threads) > 1) == (count == 2)
    return results


def _stripped_reports(names, **kwargs):
    doc = dataclasses.asdict(campaign(names, trials=1, **kwargs))
    return [{k: v for k, v in c.items() if k != "ms"} for c in doc["checks"]]


class TestTwoThreadBlocks:
    """Given two CPUs, a dense residual of 8 sites or more builds the second
    half of its column blocks on a thread; the bits must not depend on it."""

    @pytest.mark.parametrize("seed", range(4))
    def test_su2_4simplex_reports_match(self, monkeypatch, seed):
        # the twin's equations fail, so residuals far from zero are compared too
        names = ["su2-4simplex-vertex", "su2-4simplex-vertex-per-slot"]
        one, two = _on_one_and_two_cpus(monkeypatch, lambda: _stripped_reports(names, seed=seed))
        assert one == two

    def test_twelve_site_residual_matches(self, monkeypatch):
        factors = [(random_unitary(4, np.random.default_rng(70 + i)), t)
                   for i, t in enumerate(TWELVE_SITE_TUPLES)]
        one, two = _on_one_and_two_cpus(monkeypatch, lambda: reversal_residual(factors, 12))
        assert one == two
        assert one[1] > 0.1

    def test_small_registers_stay_on_the_calling_thread(self, monkeypatch):
        # below 8 sites every column fits one block, so there is nothing to split
        rng = np.random.default_rng(5)
        factors = [(random_unitary(3, rng), t) for t in index_scheme(3)]
        threads = _on_cpus(monkeypatch, 2)
        reversal_residual(factors, 6)
        assert threads == {threading.get_ident()}

    def test_concurrent_residuals_keep_their_bits(self, monkeypatch):
        # three callers at once, each with its worker: six threads on fewer
        # cores, switching often, race on the empty plan cache and share the
        # placed factors; each must still get the serial bits
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        equation = CHECKS["su2-4simplex-vertex"].fn(2, n=4)[1]
        want = reversal_residual(*equation)
        tensor._plan.cache_clear()
        got = []
        callers = [threading.Thread(target=lambda: got.append(reversal_residual(*equation)))
                   for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 3

    def test_an_error_in_the_second_half_reaches_the_caller(self, monkeypatch):
        _on_cpus(monkeypatch, 2)
        side_norms, failed_on = tensor._side_norms, []

        def fail_on_first_pin_set(*args, pins=None, **kwargs):
            # the first pinned site's column bit is 1 in exactly the second
            # half of the patterns
            if pins[min(pins)] == 1:
                failed_on.append(threading.get_ident())
                raise RuntimeError("second half")
            return side_norms(*args, pins=pins, **kwargs)

        monkeypatch.setattr(tensor, "_side_norms", fail_on_first_pin_set)
        before = threading.enumerate()
        equation = CHECKS["su2-4simplex-vertex"].fn(0, n=4)[0]
        with pytest.raises(RuntimeError, match="second half"):
            reversal_residual(*equation)
        assert failed_on and threading.get_ident() not in failed_on
        assert threading.enumerate() == before

    def test_an_error_in_the_first_half_waits_for_the_worker(self, monkeypatch):
        _on_cpus(monkeypatch, 2)
        side_norms, worker_blocks = tensor._side_norms, []

        def fail_on_first_pin_clear(*args, pins=None, **kwargs):
            # the first pinned site's column bit is 0 in exactly the caller's
            # half of the patterns
            if threading.get_ident() != caller:
                worker_blocks.append(pins)
            elif pins[min(pins)] == 0:
                raise RuntimeError("first half")
            return side_norms(*args, pins=pins, **kwargs)

        monkeypatch.setattr(tensor, "_side_norms", fail_on_first_pin_clear)
        caller, before = threading.get_ident(), threading.enumerate()
        equation = CHECKS["su2-4simplex-vertex"].fn(0, n=4)[0]
        with pytest.raises(RuntimeError, match="first half"):
            reversal_residual(*equation)
        # the worker built its whole half before the error left, and no thread runs on
        assert len(worker_blocks) == 2 ** (2 * 10 - tensor._BLOCK_BITS) // 2
        assert all(pins[min(pins)] == 1 for pins in worker_blocks)
        assert threading.enumerate() == before


def _wrapped_public_functions(monkeypatch, modules):
    # every public function of ``modules``, wherever the package binds it,
    # wrapped as a tracer wraps it; returns the set of threads that called one
    threads = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "simplexgates" or name.startswith("simplexgates."))]
    for module in modules:
        for name, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                wrapper = recording(fn)
                for bound in package:
                    for attr, value in list(vars(bound).items()):
                        if value is fn:
                            monkeypatch.setattr(bound, attr, wrapper)
    return threads


class TestTwoThreadVectors:
    """Given two CPUs, a matrix-free residual whose vectors hold more than
    2**_BLOCK_BITS entries in all (15 sites or more at 2 vectors and up)
    draws and runs the second half of its vectors on a thread; the bits
    must not depend on it."""

    @pytest.mark.parametrize("seed", range(4))
    def test_15_site_reports_match(self, monkeypatch, seed):
        # the twin's equation fails, so residuals far from zero are compared too
        names = ["nsimplex-constant", "nsimplex-su2toffoli", "nsimplex-su2toffoli-per-slot"]
        one, two = _on_one_and_two_cpus(monkeypatch, lambda: _stripped_reports(names, seed=seed))
        assert one == two

    def test_21_site_reports_match(self, monkeypatch):
        names = ["nsimplex-constant", "nsimplex-su2toffoli-per-slot"]
        one, two = _on_one_and_two_cpus(
            monkeypatch, lambda: _stripped_reports(names, seed=1, n=6, vectors=2))
        assert one == two
        assert one[1]["residuals"][0] > 0.1

    def test_a_split_residual_has_the_bits_of_the_public_kernel(self, monkeypatch):
        # the reference draws vector j of the child stream j-th and applies
        # each side to it in fresh arrays: a half that reads the wrong
        # vectors, or an R that contracts over L's copy, changes the bits
        threads = _on_cpus(monkeypatch, 2)
        factors = CHECKS["nsimplex-su2toffoli-per-slot"].fn(2, n=5)[0].factors
        got = reversal_residual(factors, 15, "matrixfree", 4, 9)
        assert len(threads) == 2
        assert got == _reference_residual(factors, factors[::-1], 15, "matrixfree", 4, 9)
        assert got[1] > 0.1

    def test_halves_join_in_item_order(self, monkeypatch):
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def run(half, start, work):
            return [(item, start, threading.get_ident(), work) for item in half]

        got = tensor._halves(list("abcde"), 2**14, run)
        assert [item for item, *_ in got] == list("abcde")
        assert [start for _, start, _, _ in got] == [0, 0, 2, 2, 2]
        caller, worker = got[0][2], got[-1][2]
        assert caller == threading.get_ident() != worker
        assert [thread for _, _, thread, _ in got] == [caller] * 2 + [worker] * 3
        first, second = got[0][3], got[-1][3]
        assert all(b.size == 2**14 for b in first + second)
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_two_calling_threads_get_the_bits_of_serial_calls(self):
        # each calling thread keeps its own buffers across calls: buffers
        # shared between callers would let one residual overwrite the other's
        # blocks or vectors.  Violated equations, so every residual is O(1)
        calls = [(*CHECKS["su2-4simplex-vertex-per-slot"].fn(1, n=4)[0], "dense"),
                 (*CHECKS["nsimplex-su2toffoli-per-slot"].fn(1, n=5)[0], "matrixfree")]
        serial = [reversal_residual(*call, 4, 0) for call in calls]
        assert min(norm for _, norm in serial) > 0.1
        barrier, got = threading.Barrier(2), [None, None]

        def caller(j):
            barrier.wait(timeout=30)
            order = calls if j == 0 else calls[::-1]
            got[j] = [[reversal_residual(*call, 4, 0) for call in order] for _ in range(3)]

        threads = [threading.Thread(target=caller, args=(j,)) for j in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[serial] * 3, [serial[::-1]] * 3]

    def test_an_error_in_the_second_half_reaches_the_caller(self, monkeypatch):
        _on_cpus(monkeypatch, 2)
        fill, caller, failed_on = tensor._fill_state, threading.get_ident(), []

        def fail_off_the_caller(v, rng):
            if threading.get_ident() != caller:
                failed_on.append(threading.get_ident())
                raise RuntimeError("second half")
            return fill(v, rng)

        monkeypatch.setattr(tensor, "_fill_state", fail_off_the_caller)
        before = threading.enumerate()
        equation = CHECKS["nsimplex-su2toffoli"].fn(0, n=5)[0]
        with pytest.raises(RuntimeError, match="second half"):
            reversal_residual(*equation, "matrixfree", 4, 0)
        assert failed_on
        assert threading.enumerate() == before

    @pytest.mark.parametrize("n, vectors", [(4, verify.DEFAULT_VECTORS), (5, 1)],
                             ids=["10-sites", "one-vector"])
    def test_small_registers_and_one_vector_stay_on_the_calling_thread(self, monkeypatch, n,
                                                                      vectors):
        # 20 vectors of 2**10 entries, or one of 2**15, fit one block
        threads = _on_cpus(monkeypatch, 2)
        equation = CHECKS["nsimplex-su2toffoli"].fn(0, n=n)[0]
        reversal_residual(*equation, "matrixfree", vectors, 0)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_advancing_the_stream_lands_on_each_vector(self, n):
        # a probe reads one raw 64-bit word per 32 amplitudes, and one word at least
        stream = np.random.SeedSequence(4).spawn(1)[0]
        rng = np.random.default_rng(stream)
        drawn = [tensor._fill_state(np.empty(2**n, dtype=complex), rng) for _ in range(3)]
        for j, want in enumerate(drawn):
            rng = np.random.default_rng(stream)
            rng.bit_generator.advance(j * math.ceil(2 ** (n + 1) / 64))
            assert np.array_equal(tensor._fill_state(np.empty(2**n, dtype=complex), rng), want)

    @pytest.mark.parametrize("mode", ["matrixfree", "dense"])
    def test_the_pool_thread_calls_no_public_function(self, monkeypatch, mode):
        # a tracer wraps public functions on one span stack for all threads,
        # so a call from the pool thread would interleave its spans with the caller's
        if mode == "matrixfree":
            factors, n = CHECKS["nsimplex-su2toffoli"].fn(1, n=5)[0]
        else:
            # sites 5 to 8 are on no factor, so the matrix takes identity factors
            rng = np.random.default_rng(8)
            factors, n = [(random_operator(3, rng), (3, 1, 2)), (random_operator(2, rng), (2, 4))], 8
        threads = _on_cpus(monkeypatch, 2)
        callers = _wrapped_public_functions(monkeypatch, [tensor, operators, su2, gates])
        reversal_residual(factors, n, mode, 4, 0)
        assert len(threads) == 2
        assert callers == {threading.get_ident()}


class TestCompiledSides:
    """Each half of a residual compiles L and R once (``tensor._program``)
    and replays them on every one of its blocks or vectors in a row; each
    item must still get the sides that a fresh ``_program`` of that item
    alone builds (for a block, the whole matrices' columns), bit for bit."""

    @staticmethod
    def _assert_items_match_one_shot(monkeypatch, factors, n, mode):
        # on one CPU one compiled pair runs every item; after each, L must be
        # in its view and L - R in R's: for a block, its columns of the whole
        # matrices, built with no pinned site, at the pinned bits; for a
        # probe, both sides built in fresh buffers from a copy of it
        _on_cpus(monkeypatch, 1)
        placed, side_norms, items = tensor._placed(factors, n), tensor._side_norms, []
        wholes = (product(factors, n), product(factors[::-1], n)) if mode == "dense" else None

        sites = tuple(f[1] for f in factors)

        def checked(sides, pins=None, rng=None):
            if rng is None:
                assert pins.keys() == tensor._pins(n, sites, sites[::-1])
                left, right = (pinned_columns(whole, n, pins) for whole in wholes)
            else:
                probe = tensor._fill_state(np.empty(2**n, dtype=complex), copy.deepcopy(rng))
                left, right = (np.ascontiguousarray(tensor._replay(tensor._program(
                    side, n, (np.empty(2**n, dtype=complex), np.empty(2**n, dtype=complex)),
                    probe.copy()))) for side in (placed, placed[::-1]))
            got = side_norms(sides, pins=pins, rng=rng)
            _, compiled_left, compiled_right = sides
            assert compiled_left[1].tobytes() == left.tobytes()
            assert compiled_right[1].tobytes() == (left - right).tobytes()
            assert got == (dot_norm(left - right), dot_norm(left))
            items.append(got)
            return got

        monkeypatch.setattr(tensor, "_side_norms", checked)
        _, norm = reversal_residual(factors, n, mode, 4, 3)
        assert len(items) >= 3 and norm > 0.01

    def test_dense_blocks_with_an_untouched_site_and_two_new_pinned_sites(self, monkeypatch):
        # 10 sites pin the column bits of sites 2, 3, 4, 5 and 8 in 32 blocks,
        # so each block is a strided set of columns; no factor touches site 1;
        # on each side a factor creates two or three pinned sites in one step
        # (2 and 8, then 5 and 3 in L; 4, 8 and 3 in R), so its operator table
        # is read at several bits; the diagonal factor creates site 10 by a GEMM
        rng = np.random.default_rng(91)
        diag = np.diag(random_operator(2, rng).diagonal())
        factors = [(random_unitary(3, rng), (4, 8, 3)), (diag, (2, 10)),
                   (random_unitary(4, rng), (5, 6, 3, 7)), (random_unitary(3, rng), (9, 2, 8))]
        sites = tuple(sites for _, sites in factors)
        assert tensor._pins(10, sites, sites[::-1]) == {2, 3, 4, 5, 8}
        self._assert_items_match_one_shot(monkeypatch, factors, 10, "dense")

    def test_probe_vectors_through_factored_and_diagonal_first_steps(self, monkeypatch):
        # the 5-site factors of the twin's 15-site equation run as U (Vh g) + g;
        # a diagonal factor at each end is the first step of each side, a GEMM
        rng = np.random.default_rng(92)
        factors = list(CHECKS["nsimplex-su2toffoli-per-slot"].fn(2, n=5)[0].factors)
        factors = [(np.diag(random_operator(2, rng).diagonal()), (1, 2)), *factors,
                   (np.diag(random_operator(2, rng).diagonal()), (3, 4))]
        assert any(factored is not None for *_, factored in tensor._placed(factors, 15))
        self._assert_items_match_one_shot(monkeypatch, factors, 15, "matrixfree")

    def test_a_side_with_no_factors_keeps_its_item(self):
        # both sides diagonal, so each is the all-ones vector times its factors:
        # an empty side must stay all ones, not read the buffer that the other
        # side multiplies, or ||1 - CZ||_F would read 0
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        assert reversal_residual([], 2, rhs=[(cz, (1, 2))]) == (2.0, 1.0)
        assert reversal_residual([(cz, (1, 2))], 2, rhs=[]) == (2.0, 1.0)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("check, order, mode", [("su2-4simplex-vertex", 4, "dense"),
                                                    ("nsimplex-su2toffoli", 5, "matrixfree")])
    def test_each_half_compiles_each_side_once(self, monkeypatch, cpus, check, order, mode):
        # one compile per side per half, however many items: 2 on one CPU and
        # 4 on two, for each 10-site equation's 32 blocks or 15-site one's 4 vectors
        _on_cpus(monkeypatch, cpus)
        program, compiled = tensor._program, []

        def counted(*args, **kwargs):
            compiled.append(threading.get_ident())
            return program(*args, **kwargs)

        monkeypatch.setattr(tensor, "_program", counted)
        for factors, n in CHECKS[check].fn(0, n=order):
            compiled.clear()
            reversal_residual(factors, n, mode, 4)
            assert len(compiled) == 2 * cpus


class TestPermutationRelations:
    @pytest.mark.parametrize("mode", verify.MODES)
    def test_plain_permutations(self, monkeypatch, mode):
        monkeypatch.setattr(verify, "random_axis_angle", lambda rng: AxisAngle(Z_AXIS, 0.0))
        members = CHECKS["perm-relations"].fn(0, n=None)
        assert len(members) == 6 and all(isinstance(m, verify.Relation) for m in members)
        norms = [reversal_residual(*m[:2], mode, 3, 0, rhs=m.rhs)[1] for m in members]
        assert all(norm < 1e-14 for norm in norms), norms

    def test_the_relations_follow_the_mode_and_its_vectors(self):
        # each relation is evaluated in the run's mode, on its probe vectors
        # when matrix-free, so the residuals are not the dense ones
        runs = [{}, {"mode": "matrixfree", "vectors": 3}, {"mode": "matrixfree", "vectors": 20}]
        dense, few, many = (campaign(["perm-relations"], trials=2, seed=3, **kwargs).checks[0]
                            for kwargs in runs)
        for check in (few, many):
            assert check.verdict == "pass" and check.mode == "matrixfree"
        assert dense.mode == "dense"
        assert len({tuple(check.residuals) for check in (dense, few, many)}) == 3
        for check, kwargs in zip((dense, few, many), runs):
            for i, seed in enumerate((3, 4)):
                pairs = [reversal_residual(*m[:2], check.mode, kwargs.get("vectors", 20), seed,
                                           rhs=m.rhs)
                         for m in CHECKS["perm-relations"].fn(seed, n=None)]
                assert check.raw_residuals[i] == max(raw for raw, _ in pairs)
                assert check.residuals[i] == max(norm for _, norm in pairs)

    def test_random_parameters(self):
        report = campaign(["perm-relations"], trials=10, seed=37)
        assert report.verdict == "pass"
        assert report.checks[0].max_residual < 1e-13

    def test_braid_relation_directly(self):
        rng = np.random.default_rng(38)
        p1, p2, p3 = (random_axis_angle(rng) for _ in range(3))
        p12 = embed(twisted_permutation(p1, p2), (1, 2), 3)
        p23 = embed(twisted_permutation(p2, p3), (2, 3), 3)
        assert np.linalg.norm(p12 @ p23 @ p12 - p23 @ p12 @ p23) < 1e-13


def _patch_phased_constant(monkeypatch, member):
    # constant-vertex's second member, n_simplex_constant(3, alpha), becomes
    # member; its first, n_simplex_constant(3) at alpha 0, stays the sign flip
    real = operators.n_simplex_constant
    monkeypatch.setattr(operators, "n_simplex_constant",
                        lambda n, alpha=0.0: member if alpha else real(n, alpha))


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
        with pytest.raises(CampaignArgumentError, match="unknown check 'no-such-check'"):
            campaign(["no-such-check"], trials=1, seed=0)

    def test_trials_use_derived_seeds(self):
        single = campaign(["generic-vertex"], trials=1, seed=9)
        double = campaign(["generic-vertex"], trials=2, seed=9)
        assert double.checks[0].residuals[0] == single.checks[0].residuals[0]
        shifted = campaign(["generic-vertex"], trials=1, seed=10)
        assert double.checks[0].residuals[1] == shifted.checks[0].residuals[0]

    def test_trials_carry_no_state_from_one_to_the_next(self):
        # each trial run alone, last seed first, gives the campaign's bits
        report = campaign(sorted(CHECKS), trials=3, seed=5, n=3)
        runs = [(c.check, CHECKS[c.check], c.n, c.mode) for c in report.checks]
        backwards = {i: verify._trial(runs, 5 + i, verify.DEFAULT_VECTORS) for i in (2, 1, 0)}
        for k, check in enumerate(report.checks):
            worst = [backwards[i][k][0] for i in range(3)]
            assert check.raw_residuals == [float(raw) for raw, _ in worst], check.check
            assert check.residuals == [float(norm) for _, norm in worst], check.check

    def test_reports_are_deterministic_up_to_wall_time(self):
        a = dataclasses.asdict(campaign(["su2-tetra-vertex", "hadamard-bridge"], trials=3, seed=7))
        b = dataclasses.asdict(campaign(["su2-tetra-vertex", "hadamard-bridge"], trials=3, seed=7))

        def strip_ms(doc):
            doc = dict(doc)
            doc.pop("ms", None)
            doc["checks"] = [{k: v for k, v in c.items() if k != "ms"} for c in doc["checks"]]
            return doc

        assert json.dumps(strip_ms(a), sort_keys=True) == json.dumps(strip_ms(b), sort_keys=True)

    def test_nan_residual_fails_inverted_check(self, monkeypatch):
        # min([0.7, nan]) is 0.7, so a NaN trial must not slip past the threshold
        def fn(trial_seed, **_):
            return [(0.7, 0.7) if trial_seed == 0 else (float("nan"), float("nan"))]

        monkeypatch.setitem(verify.CHECKS, "nan-control", CheckSpec(
            name="nan-control", description="", fn=fn, tolerance=0.5, invert=True))
        assert campaign(["nan-control"], trials=2, seed=0).verdict == "fail"

    def test_nan_trial_shows_in_max_residual(self, monkeypatch):
        # max([0.7, nan]) is 0.7, which would hide the failing trial
        def fn(trial_seed, **_):
            return [(0.7, 0.7) if trial_seed == 0 else (float("nan"), float("nan"))]

        monkeypatch.setitem(verify.CHECKS, "nan-check", CheckSpec(
            name="nan-check", description="", fn=fn, tolerance=1.0))
        check = campaign(["nan-check"], trials=2, seed=0).checks[0]
        assert check.verdict == "fail"
        assert np.isnan(check.max_residual)

    def test_nan_member_of_a_multi_equation_check_fails(self, monkeypatch):
        # the phased member is the second of four, where builtin max() over
        # the members would drop its NaN
        _patch_phased_constant(monkeypatch, np.full((8, 8), np.nan, dtype=complex))
        check = campaign(["constant-vertex"], trials=2).checks[0]
        assert check.verdict == "fail"
        assert np.isnan(check.max_residual)

    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    def test_nan_diagonal_member_fails(self, monkeypatch, mode):
        # a diagonal member takes the exact elementwise product, which the
        # all-NaN matrix above, not being diagonal, never reaches
        _patch_phased_constant(monkeypatch, np.diag([np.nan] * 8).astype(complex))
        check = campaign(["constant-vertex"], trials=2, mode=mode, vectors=2).checks[0]
        assert check.verdict == "fail"
        assert np.isnan(check.max_residual)

    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    def test_one_nan_among_unit_diagonal_entries_fails(self, monkeypatch, mode):
        # the exact product skips diagonal entries of exactly 1; NaN is not 1
        _patch_phased_constant(monkeypatch, np.diag([1.0] * 7 + [np.nan]).astype(complex))
        check = campaign(["constant-vertex"], trials=2, mode=mode, vectors=2).checks[0]
        assert check.verdict == "fail"
        assert not np.isfinite(check.max_residual)

    @pytest.mark.parametrize("name, family, dim, nan_when", [
        ("hadamard-bridge", "n_simplex_constant", 4, lambda n, *_: n == 2),
        ("toffoli-reduction", "su2_tetrahedron", 8, None),
        ("unitary-families", "general_toffoli", 8, None),
        ("perm-relations", "conjugated_site_operator", 2, None),
    ], ids=["hadamard-bridge-cz_yangbaxter-4", "toffoli-reduction-su2_tetrahedron-8",
            "unitary-families-general_toffoli-8", "perm-relations-conjugated_site_operator-2"])
    def test_nan_member_of_a_pair_check_fails(self, monkeypatch, name, family, dim, nan_when):
        # the patched family feeds a member after the first, where builtin
        # max() over the members would drop its NaN; n_simplex_constant also
        # feeds hadamard-bridge's first two, so only its n = 2 call, the third, is NaN
        real = getattr(operators, family)

        def patched(*args, **kwargs):
            if nan_when is None or nan_when(*args, **kwargs):
                return np.full((dim, dim), np.nan, dtype=complex)
            return real(*args, **kwargs)

        monkeypatch.setattr(operators, family, patched)
        check = campaign([name], trials=2).checks[0]
        assert check.verdict == "fail"
        assert np.isnan(check.max_residual)

    def test_unknown_mode_is_refused_before_any_trial(self, monkeypatch):
        calls = []

        def record(trial_seed, **kwargs):
            calls.append(trial_seed)
            return 0.0, 0.0

        spec = CHECKS["hadamard-bridge"]
        monkeypatch.setitem(CHECKS, spec.name, dataclasses.replace(spec, fn=record))
        with pytest.raises(CampaignArgumentError, match="mode must be"):
            campaign(["hadamard-bridge", "constant-vertex"], trials=1, mode="bogus")
        assert calls == []

    def test_negative_seed_is_refused_before_any_trial(self, monkeypatch):
        # np.random.default_rng would refuse seed + 0 only inside the first trial
        calls = []

        def record(trial_seed, **kwargs):
            calls.append(trial_seed)
            return [(0.0, 0.0)]

        spec = CHECKS["hadamard-bridge"]
        monkeypatch.setitem(CHECKS, spec.name, dataclasses.replace(spec, fn=record))
        with pytest.raises(CampaignArgumentError, match="seed must be at least 0, got -3"):
            campaign(["hadamard-bridge"], trials=1, seed=-3)
        assert calls == []

    @pytest.mark.parametrize("name", ["constant-vertex", "su2-4simplex-vertex"])
    def test_campaign_residual_is_the_worst_equation_in_its_mode(self, name):
        spec, seed, trials = CHECKS[name], 13, 2
        report = campaign([name], trials=trials, seed=seed, mode="matrixfree", vectors=3)
        check = report.checks[0]
        for i in range(trials):
            equations = spec.fn(seed + i, n=spec.default_n)
            assert len(equations) > 1
            pairs = [reversal_residual(*eq, "matrixfree", 3, seed + i) for eq in equations]
            assert check.raw_residuals[i] == max(raw for raw, _ in pairs)
            assert check.residuals[i] == max(norm for _, norm in pairs)

    def test_tolerance_override_can_fail_a_check(self):
        report = campaign(["su2-tetra-vertex"], trials=1, seed=0, tol=1e-30)
        assert report.verdict == "fail"

    def test_every_check_returns_members(self):
        for name, spec in CHECKS.items():
            members = spec.fn(7, n=spec.default_n)
            assert isinstance(members, list) and members, name
            for m in members:
                assert isinstance(m, (verify.Equation, verify.Relation)) or (
                    len(m) == 2 and all(isinstance(x, float) for x in m)), (name, m)

    def test_every_registered_check_passes_one_trial(self):
        report = campaign(sorted(CHECKS), trials=1, seed=123)
        failing = [c.check for c in report.checks if c.verdict != "pass"]
        assert report.verdict == "pass", f"failing checks: {failing}"

    def test_check_report_json_schema(self):
        report = campaign(["apply-vs-embed"], trials=2, seed=1)
        doc = json.loads(json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2))
        check = doc["checks"][0]
        for key in ("check", "n", "mode", "trials", "seed", "residuals",
                    "max_residual", "tolerance", "verdict", "ms"):
            assert key in check
        assert check["verdict"] == "pass"


class TestSharedDraws:
    """A campaign runs trials outermost and evaluates every Equation member
    with one ``reversal_residual`` call; each matrix-free equation that is
    not diagonal draws its vectors itself, and those of one trial and
    register size share their bits, not a draw."""

    @staticmethod
    def _counted_draws(monkeypatch):
        sizes, fill = [], tensor._fill_state

        def counting(v, rng):
            sizes.append(v.size.bit_length() - 1)
            return fill(v, rng)

        monkeypatch.setattr(tensor, "_fill_state", counting)
        return sizes

    @staticmethod
    def _alone(names, **kwargs):
        return {name: campaign([name], **kwargs).checks[0] for name in names}

    def test_each_matrixfree_equation_draws_the_trials_vectors_itself(self, monkeypatch):
        # n = 3: all four checks are 6-site; the four equations of
        # constant-vertex and the one of nsimplex-constant are diagonal and
        # draw nothing, so the draws are the two rotation equations'
        names = ["constant-vertex", "su2-tetra-vertex", "nsimplex-constant", "nsimplex-su2toffoli"]
        equations, trials, vectors = 2, 2, 3
        alone = self._alone(names, trials=trials, seed=5, n=3, mode="matrixfree", vectors=vectors)
        drawn, fill = [], tensor._fill_state

        def recording(v, rng):
            # a copy: the residual overwrites its vector
            drawn.append(fill(v, rng).copy())
            return v

        monkeypatch.setattr(tensor, "_fill_state", recording)
        report = campaign(names, trials=trials, seed=5, n=3, mode="matrixfree", vectors=vectors)
        assert len(drawn) == equations * vectors * trials
        for trial in np.split(np.array(drawn), trials):
            for equation in np.split(trial, equations):
                assert np.array_equal(equation, trial[:vectors])
        assert not np.array_equal(drawn[0], drawn[equations * vectors])
        for check in report.checks:
            assert check.residuals == alone[check.check].residuals
            assert check.raw_residuals == alone[check.check].raw_residuals
        drawn.clear()
        campaign(DIAGONAL_CHECKS, trials=trials, seed=5, n=3, mode="matrixfree", vectors=vectors)
        assert drawn == []

    def test_every_matrixfree_equation_is_one_reversal_residual_call(self, monkeypatch):
        # constant-vertex has four equations and nsimplex-constant one, two trials each
        modes = []

        def counting(factors, register_size, mode="dense", *rest):
            modes.append(mode)
            return reversal_residual(factors, register_size, mode, *rest)

        monkeypatch.setattr(verify, "reversal_residual", counting)
        campaign(["constant-vertex", "nsimplex-constant"], trials=2, n=3, mode="matrixfree",
                 vectors=2)
        assert modes == ["matrixfree"] * 10

    def test_each_equation_gets_the_bits_of_its_own_residual(self):
        names, seed, trials = ["constant-vertex", "nsimplex-constant", "nsimplex-su2toffoli"], 8, 2
        report = campaign(names, trials=trials, seed=seed, n=3, mode="matrixfree", vectors=3)
        for check in report.checks:
            spec = CHECKS[check.check]
            for i in range(trials):
                pairs = [reversal_residual(*eq, "matrixfree", 3, seed + i)
                         for eq in spec.fn(seed + i, n=3)]
                assert check.raw_residuals[i] == max(raw for raw, _ in pairs)
                assert check.residuals[i] == max(norm for _, norm in pairs)

    @pytest.mark.parametrize("names, kwargs, sizes", [
        # one draw list per matrix-free equation that is not diagonal; the
        # diagonal ones, constant-vertex's four and nsimplex-constant's, draw none
        (["nsimplex-su2toffoli", "su2-tetra-vertex", "nsimplex-constant", "constant-vertex"],
         {"n": 4, "mode": "matrixfree"}, [10, 6]),
        (["su2-tetra-vertex", "nsimplex-su2toffoli", "nsimplex-constant"], {"n": 3}, [6]),
    ], ids=["two-sizes", "dense-and-matrixfree"])
    def test_mixed_sizes_or_modes_share_nothing(self, monkeypatch, names, kwargs, sizes):
        trials, vectors = 2, 2
        alone = self._alone(names, trials=trials, seed=3, vectors=vectors, **kwargs)
        drawn = self._counted_draws(monkeypatch)
        report = campaign(names, trials=trials, seed=3, vectors=vectors, **kwargs)
        assert sorted(drawn) == sorted(sizes * trials * vectors)
        for check in report.checks:
            assert check.residuals == alone[check.check].residuals
        drawn.clear()
        campaign([name for name in names if name in DIAGONAL_CHECKS], trials=trials, seed=3,
                 vectors=vectors, **kwargs)
        assert drawn == []

    def test_vectors_come_from_a_stream_apart_from_the_checks_parameters(self, monkeypatch):
        # every check draws its parameters from default_rng(trial seed); a
        # vector from that stream would reuse those bits (at seed 7 its first
        # three 64-bit words set site 1's axis of nsimplex-su2toffoli)
        equation = CHECKS["nsimplex-su2toffoli"].fn(7, n=3)[0]
        drawn, fill = [], tensor._fill_state

        def recording(v, rng):
            drawn.append(fill(v, rng).copy())
            return v

        monkeypatch.setattr(tensor, "_fill_state", recording)
        reversal_residual(*equation, "matrixfree", 1, 7)
        same_stream = fill(np.empty(64, dtype=complex), np.random.default_rng(7))
        assert not np.allclose(drawn[0], same_stream)

    def test_a_check_named_twice_gets_two_reports(self):
        report = campaign(["nsimplex-constant", "nsimplex-constant"], trials=2, seed=1, n=3)
        assert [c.check for c in report.checks] == ["nsimplex-constant"] * 2
        for check in report.checks:
            assert len(check.residuals) == len(check.raw_residuals) == check.trials == 2
        assert report.checks[0].residuals == report.checks[1].residuals

    def test_check_times_add_up_within_the_campaign(self):
        report = campaign(["nsimplex-constant", "hadamard-bridge", "nsimplex-su2toffoli"],
                          trials=2, n=3)
        assert all(c.ms > 0 for c in report.checks)
        assert sum(c.ms for c in report.checks) <= report.ms

    @staticmethod
    def _residual_peak(monkeypatch, name, cpus, cold=True):
        # the traced peak of one 15-site residual of 2 vectors, in state vectors
        # of 512 KiB, after a warm-up call; a cold call runs on a fresh thread,
        # which allocates the buffers that the calling thread keeps
        _on_cpus(monkeypatch, cpus)
        equation = CHECKS[name].fn(3, n=5)[0]
        reversal_residual(*equation, "matrixfree", 2, 0)
        call = threading.Thread(target=reversal_residual, args=(*equation, "matrixfree", 2, 0))
        tracemalloc.start()
        try:
            if cold:
                call.start()
                call.join(timeout=60)
                assert not call.is_alive()
            else:
                reversal_residual(*equation, "matrixfree", 2, 0)
            return tracemalloc.get_traced_memory()[1] / (2**15 * 16)
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["nsimplex-constant", "nsimplex-su2toffoli"])
    def test_a_15_site_matrixfree_residual_peaks_at_three_state_vectors_on_one_cpu(
            self, monkeypatch, name):
        # three kernel buffers, each vector drawn into the third; a vector
        # of its own, or the previous one kept alive, makes it 4
        assert self._residual_peak(monkeypatch, name, 1) < 3.5

    @pytest.mark.parametrize("name", ["nsimplex-constant", "nsimplex-su2toffoli"])
    def test_a_15_site_matrixfree_residual_peaks_at_six_state_vectors_on_two_cpus(
            self, monkeypatch, name):
        # each thread's three buffers, both sets allocated by the caller
        assert self._residual_peak(monkeypatch, name, 2) < 6.5

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_warm_15_site_matrixfree_residual_allocates_no_state_vector(self, monkeypatch,
                                                                        cpus):
        # the calling thread keeps its buffers from the warm-up call; what is
        # left is small: a factored step's Vh g block and each probe's raw words
        assert self._residual_peak(monkeypatch, "nsimplex-su2toffoli", cpus, cold=False) < 0.5

    def test_two_15_site_checks_peak_like_one(self, monkeypatch):
        # each residual frees its three kernel buffers and its vector before
        # the next one runs, so a second check adds only small objects; its
        # buffers or vector held beside the first check's would add 512 KiB.
        # On one CPU: given two, the pool thread's short-lived blocks and
        # probe words overlap the caller's by chance, which moved the peak of
        # one 15-site nsimplex-su2toffoli residual by up to 80 KiB
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def peak(names):
            tracemalloc.start()
            try:
                campaign(names, trials=1, seed=2, vectors=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        campaign(["nsimplex-constant", "nsimplex-su2toffoli"], trials=1, vectors=1)  # warm up
        one = max(peak(["nsimplex-constant"]), peak(["nsimplex-su2toffoli"]))
        assert peak(["nsimplex-constant", "nsimplex-su2toffoli"]) <= one + 2**15 * 16 // 8
