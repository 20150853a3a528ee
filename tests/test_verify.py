import dataclasses
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
from simplexgates import operators, tensor, verify
from simplexgates.verify import (
    CHECKS,
    EDGE_TUPLES_3,
    CampaignArgumentError,
    CheckSpec,
    campaign,
    index_scheme,
    random_mu_assignment,
    random_su2_assignment,
    reversal_residual,
    simplex_equation,
    slot_equation,
)

from reference import product

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
        assert reversal_residual(*simplex_equation(
            index_scheme(3).tuples, 6, lambda _: n_simplex_constant(3), [None] * 6))[1] < 1e-12

    def test_su2_family_vanishes(self):
        rng = np.random.default_rng(31)
        assert reversal_residual(*simplex_equation(
            index_scheme(3).tuples, 6, lambda ps: su2_tetrahedron(*ps, alpha=1.0),
            random_su2_assignment(6, rng)))[1] < 1e-11

    def test_ccnot_violates_the_equation(self):
        residual = reversal_residual(*simplex_equation(
            index_scheme(3).tuples, 6, lambda _: CCNOT, [None] * 6))[1]
        assert residual >= 0.5

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError, match="assignment"):
            simplex_equation(index_scheme(3).tuples, 6, lambda _: CCNOT, [None] * 5)

    @pytest.mark.parametrize("site", [0, 7])
    def test_site_outside_the_register_is_refused_before_the_provider(self, site):
        # site 0 would read assignment[-1] and site 7 assignment[6], an IndexError
        def provider(params):
            raise AssertionError("provider called")

        tuples = ((1, 2, 3), (1, 4, site))
        with pytest.raises(ValueError, match=f"site {site} outside register 1..6"):
            simplex_equation(tuples, 6, provider, list(range(6)))

    def test_dense_refused_beyond_site_limit(self):
        def provider(params):
            return n_simplex_constant(5)

        with pytest.raises(CampaignArgumentError,
                           match="dense mode supports at most 12 sites, got 15; use matrixfree"):
            reversal_residual(*simplex_equation(
                index_scheme(5).tuples, 15, provider, [None] * 15), mode="dense")[1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            reversal_residual(*simplex_equation(
                index_scheme(3).tuples, 6, lambda _: CCNOT, [None] * 6), mode="sparse")[1]

    def test_matrixfree_agrees_with_dense_on_solution(self):
        rng = np.random.default_rng(33)
        assignment = random_su2_assignment(6, rng)
        equation = simplex_equation(index_scheme(3).tuples, 6,
                                    lambda ps: su2_tetrahedron(*ps, alpha=0.5), assignment)
        dense = reversal_residual(*equation, mode="dense")[1]
        free = reversal_residual(*equation, mode="matrixfree", vectors=8, seed=5)[1]
        assert dense < 1e-11 and free < 1e-11

    def test_matrixfree_detects_violation(self):
        free = reversal_residual(
            *simplex_equation(index_scheme(3).tuples, 6, lambda _: CCNOT, [None] * 6),
            mode="matrixfree", vectors=8, seed=5)[1]
        assert free > 0.1


def test_column_reconstruction_matches_dense_residual():
    # applying both sides to every basis vector rebuilds L - R column by column
    rng = np.random.default_rng(34)
    assignment = random_su2_assignment(6, rng)
    scheme = index_scheme(3)
    factors = [(su2_tetrahedron(*(assignment[s - 1] for s in t), alpha=0.8), t)
               for t in scheme.tuples]
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
        couplings = CouplingConstants.random(rng)
        assert reversal_residual(*simplex_equation(
            EDGE_TUPLES_3, 4, lambda mus: generic_tetrahedron(fam, mus, couplings),
            random_mu_assignment(4, rng)))[1] < 1e-12

    def test_constant_ccz(self):
        assert reversal_residual(*simplex_equation(
            EDGE_TUPLES_3, 4, lambda _: n_simplex_constant(3), [None] * 4))[1] < 1e-13

    def test_identity_provider_is_exactly_zero(self):
        raw, norm = reversal_residual(
            [(identity(3), t) for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))], 4)
        assert raw == 0.0 and norm == 0.0

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError, match="4 sites"):
            simplex_equation(EDGE_TUPLES_3, 4, lambda _: n_simplex_constant(3), [None] * 6)


class TestSlotEquation:
    @pytest.mark.parametrize("tuples, size, provider", [
        (index_scheme(3).tuples, 6, lambda ps: su2_tetrahedron(*ps, alpha=0.7)),
        (EDGE_TUPLES_3, 4, lambda ps: su2_tetrahedron(*ps, alpha=2.1)),
        (index_scheme(4).tuples, 10, lambda ps: su2_4simplex(*ps, alpha=0.4)),
    ], ids=["vertex-3", "edge-3", "vertex-4"])
    def test_each_slot_reading_its_site_gives_the_per_site_factors(self, tuples, size, provider):
        assignment = random_su2_assignment(size, np.random.default_rng(size))
        want = simplex_equation(tuples, size, provider, assignment)
        got = slot_equation(tuples, size, provider, [assignment[s - 1] for t in tuples for s in t])
        assert got.register_size == want.register_size
        assert ([(op.tobytes(), sites) for op, sites in got.factors]
                == [(op.tobytes(), sites) for op, sites in want.factors])

    @pytest.mark.parametrize("count", [0, 6, 11, 13])
    def test_a_wrong_parameter_count_is_refused_before_the_provider(self, count):
        def provider(params):
            raise AssertionError("provider called")

        with pytest.raises(ValueError, match=f"params must cover all 12 slots, got {count}$"):
            slot_equation(index_scheme(3).tuples, 6, provider, list(range(count)))


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
    assert reversal_residual([(zero, t) for t in EDGE_TUPLES_3], 4, mode=mode) == (0.0, 0.0)


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
], ids=["unknown-name", "campaign-dense-ceiling", "residual-dense-ceiling",
        "campaign-matrixfree-ceiling", "residual-matrixfree-ceiling", "campaign-unknown-mode",
        "residual-unknown-mode", "one-factor", "no-sites"])
def test_every_refusal_is_one_value_error_with_its_whole_message(call, message):
    with pytest.raises(CampaignArgumentError, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("order", [3, 4], ids=["6-sites", "10-sites"])
def test_matrixfree_residual_matches_per_factor_apply(order):
    # the product kernel against one apply per factor on the same vectors
    rng = np.random.default_rng(37 + order)
    scheme = index_scheme(order)
    factors = [(random_unitary(len(t), rng), t) for t in scheme.tuples]
    size, vectors, seed = scheme.register_size, 4, 38
    vector_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    raws, norms = [], []
    for _ in range(vectors):
        v = random_state(size, vector_rng)
        left, right = v, v
        for op, sites in reversed(factors):
            left = apply(op, sites, left)
        for op, sites in factors:
            right = apply(op, sites, right)
        raws.append(np.linalg.norm(left - right))
        norms.append(raws[-1] / np.linalg.norm(left))
    raw, norm = reversal_residual(factors, size, mode="matrixfree", vectors=vectors, seed=seed)
    assert max(raws) > 0.1  # random unitaries do not solve the equation
    assert abs(raw - max(raws)) < 1e-14
    assert abs(norm - max(norms)) < 1e-14


def _haar_equation(tuples, rng):
    # Haar-random factors on the placement tuples (a vertex scheme's, say)
    # solve nothing, so their dense residual is of order 1 and a misplaced axis changes it
    size = max(s for t in tuples for s in t)
    factors = [(random_unitary(len(t), rng), t) for t in tuples]
    _, base = reversal_residual(factors, size)
    assert base > 0.1
    return factors, size, base


# six 4-site placements on 12 sites, each site in two of them: a dense
# residual there pins the 2 * 12 - _BLOCK_BITS = 9 column bits of sites 1..9
TWELVE_SITE_TUPLES = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12),
                      (1, 5, 9, 2), (3, 6, 10, 7), (4, 8, 11, 12))


# Each invariance below holds in exact arithmetic for the dense residual, so
# these three tests check the kernel's axis bookkeeping with no reference matrix.
def test_residual_invariant_under_global_site_relabeling():
    cases = [(36 + order, index_scheme(order).tuples) for order in (3, 4)]
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
        factors, size, base = _haar_equation(index_scheme(order).tuples, rng)
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
        factors, size, base = _haar_equation(index_scheme(order).tuples, rng)
        adjoint = [(op.conj().T, sites) for op, sites in reversed(factors)]
        _, daggered = reversal_residual(adjoint, size)
        assert abs(base - daggered) <= 1e-12 * base


def _reference_residual(lhs, rhs, n, mode, vectors, seed):
    # the same residual from the public kernel: whole matrices or vectors
    # in site order, subtracted, then the worst vector.  Above 8 sites a
    # dense residual sums squared norms over the column blocks whose
    # leading m column bits are pinned, as the residual does
    m = max(0, 2 * n - verify._BLOCK_BITS)
    if mode == "dense" and m > 0:
        left, right = product(lhs, n), product(rhs, n)
        width = 2 ** (n - m)
        blocks = [slice(j, j + width) for j in range(0, 2**n, width)]
        raw = math.sqrt(sum(np.linalg.norm(left[:, b] - right[:, b]) ** 2 for b in blocks))
        scale = math.sqrt(sum(np.linalg.norm(left[:, b]) ** 2 for b in blocks))
        return raw, raw / scale
    if mode == "dense":
        blocks = [None]
        side = lambda factors, block: product(factors, n)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        blocks = [random_state(n, rng) for _ in range(vectors)]
        side = apply_product
    pairs = []
    for block in blocks:
        left, right = side(lhs, block), side(rhs, block)
        raw = float(np.linalg.norm(left - right))
        scale = float(np.linalg.norm(left))
        pairs.append((raw, raw / scale if scale > 0 else raw))
    return max(raw for raw, _ in pairs), max(norm for _, norm in pairs)


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
    # site 1 only on the left; sites 4 and 5 on neither side
    return [pytest.param([p12, p12], [], 2, id="involution-vs-empty"),
            pytest.param([(random_operator(3, rng), (3, 1, 2))],
                         [(random_operator(2, rng), (2, 3))], 5, id="untouched-sites")]


class TestProductResidual:
    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    @pytest.mark.parametrize("factors, n", _reversal_cases())
    def test_bit_identical_to_the_public_kernel(self, mode, factors, n):
        expected = _reference_residual(factors, factors[::-1], n, mode, vectors=3, seed=11)
        assert reversal_residual(factors, n, mode, vectors=3, seed=11) == expected

    @pytest.mark.parametrize("lhs, rhs, n", _relation_cases())
    def test_relation_distance_matches_product(self, lhs, rhs, n):
        assert verify._relation_distance(lhs, rhs, n) == _reference_residual(
            lhs, rhs, n, "dense", vectors=3, seed=11)

    @pytest.mark.parametrize("factors, n", _reversal_cases())
    def test_relations_and_equations_share_the_dense_distance(self, factors, n):
        assert verify._relation_distance(factors, factors[::-1], n) == reversal_residual(
            factors, n, "dense")

    def test_blocked_dense_residual_matches_the_whole_matrix_norm(self):
        # Haar-random 4-site unitaries do not solve the 10-site equation, so
        # every column block adds an O(1) share to both norms
        rng = np.random.default_rng(61)
        factors = [(random_unitary(4, rng), t) for t in index_scheme(4).tuples]
        left, right = product(factors, 10), product(factors[::-1], 10)
        raw = np.linalg.norm(left - right)
        norm = raw / np.linalg.norm(left)
        assert norm > 0.1
        got_raw, got_norm = reversal_residual(factors, 10)
        assert abs(got_raw - raw) <= 1e-14 * raw
        assert abs(got_norm - norm) <= 1e-14 * norm


def _on_cpus(monkeypatch, count):
    # the CPU set _dense_distance reads, and the threads its blocks then run on
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    threads, side_norms = set(), verify._side_norms

    def spy(*args, **kwargs):
        threads.add(threading.get_ident())
        return side_norms(*args, **kwargs)

    monkeypatch.setattr(verify, "_side_norms", spy)
    return threads


class TestTwoThreadBlocks:
    """Given two CPUs, a dense residual of 8 sites or more builds the second
    half of its column blocks on a thread; the bits must not depend on it."""

    @staticmethod
    def _on_one_and_two_cpus(monkeypatch, run):
        results = []
        for count in (1, 2):
            with monkeypatch.context() as patch:
                threads = _on_cpus(patch, count)
                results.append(run())
            # one thread per residual, on top of the caller's, and only given two CPUs
            assert threading.get_ident() in threads and (len(threads) > 1) == (count == 2)
        return results

    @pytest.mark.parametrize("seed", range(4))
    def test_su2_4simplex_reports_match(self, monkeypatch, seed):
        def report():
            # the twin's equations fail, so residuals far from zero are compared too
            names = ["su2-4simplex-vertex", "su2-4simplex-vertex-per-slot"]
            doc = dataclasses.asdict(campaign(names, trials=1, seed=seed))
            return [{k: v for k, v in c.items() if k != "ms"} for c in doc["checks"]]

        one, two = self._on_one_and_two_cpus(monkeypatch, report)
        assert one == two

    def test_twelve_site_residual_matches(self, monkeypatch):
        factors = [(random_unitary(4, np.random.default_rng(70 + i)), t)
                   for i, t in enumerate(TWELVE_SITE_TUPLES)]
        one, two = self._on_one_and_two_cpus(monkeypatch, lambda: reversal_residual(factors, 12))
        assert one == two
        assert one[1] > 0.1

    def test_small_registers_stay_on_the_calling_thread(self, monkeypatch):
        # below 8 sites every column fits one block, so there is nothing to split
        rng = np.random.default_rng(5)
        factors = [(random_unitary(3, rng), t) for t in index_scheme(3).tuples]
        threads = _on_cpus(monkeypatch, 2)
        reversal_residual(factors, 6)
        assert threads == {threading.get_ident()}

    def test_concurrent_residuals_keep_their_bits(self, monkeypatch):
        # three callers at once, each with its worker: six threads on fewer
        # cores, switching often, race on the empty plan cache and share the
        # placed factors; each must still get the serial bits
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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
        side_norms, failed_on = verify._side_norms, []

        def fail_on_site_1_set(*args, pins=None, **kwargs):
            # site 1's column bit is 1 in exactly the second half of the patterns
            if pins[1] == 1:
                failed_on.append(threading.get_ident())
                raise RuntimeError("second half")
            return side_norms(*args, pins=pins, **kwargs)

        monkeypatch.setattr(verify, "_side_norms", fail_on_site_1_set)
        before = threading.enumerate()
        equation = CHECKS["su2-4simplex-vertex"].fn(0, n=4)[0]
        with pytest.raises(RuntimeError, match="second half"):
            reversal_residual(*equation)
        assert failed_on and threading.get_ident() not in failed_on
        assert threading.enumerate() == before

    def test_an_error_in_the_first_half_waits_for_the_worker(self, monkeypatch):
        _on_cpus(monkeypatch, 2)
        side_norms, worker_blocks = verify._side_norms, []

        def fail_on_site_1_clear(*args, pins=None, **kwargs):
            # site 1's column bit is 0 in exactly the caller's half of the patterns
            if threading.get_ident() != caller:
                worker_blocks.append(pins)
            elif pins[1] == 0:
                raise RuntimeError("first half")
            return side_norms(*args, pins=pins, **kwargs)

        monkeypatch.setattr(verify, "_side_norms", fail_on_site_1_clear)
        caller, before = threading.get_ident(), threading.enumerate()
        equation = CHECKS["su2-4simplex-vertex"].fn(0, n=4)[0]
        with pytest.raises(RuntimeError, match="first half"):
            reversal_residual(*equation)
        # the worker built its whole half before the error left, and no thread runs on
        assert len(worker_blocks) == 2 ** (2 * 10 - verify._BLOCK_BITS) // 2
        assert all(pins[1] == 1 for pins in worker_blocks)
        assert threading.enumerate() == before


class TestPermutationRelations:
    def test_plain_permutations(self):
        p = AxisAngle(Z_AXIS, 0.0)
        named = verify._perm_relation_residuals(p, p, p, np.random.default_rng(0))
        assert all(norm < 1e-14 for _, norm in named.values()), named

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
        # a diagonal member takes the kernel's broadcast multiply, which the
        # all-NaN matrix above, not being diagonal, never reaches
        _patch_phased_constant(monkeypatch, np.diag([np.nan] * 8).astype(complex))
        check = campaign(["constant-vertex"], trials=2, mode=mode, vectors=2).checks[0]
        assert check.verdict == "fail"
        assert np.isnan(check.max_residual)

    @pytest.mark.parametrize("mode", ["dense", "matrixfree"])
    def test_one_nan_among_unit_diagonal_entries_fails(self, monkeypatch, mode):
        # the kernel skips diagonal entries of exactly 1; NaN is not 1
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
                assert isinstance(m, verify.Equation) or (
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
    """A campaign runs trials outermost and evaluates every matrix-free
    equation of a trial that shares a register size on one draw of the
    vectors; each equation still gets the bits it gets alone."""

    @staticmethod
    def _counted_draws(monkeypatch):
        sizes = []

        def counting(n, rng):
            sizes.append(n)
            return random_state(n, rng)

        monkeypatch.setattr(verify, "random_state", counting)
        return sizes

    @staticmethod
    def _alone(names, **kwargs):
        return {name: campaign([name], **kwargs).checks[0] for name in names}

    def test_matrixfree_checks_of_one_size_draw_each_vector_once(self, monkeypatch):
        # n = 3: all three checks are 6-site, constant-vertex with four equations
        names = ["constant-vertex", "nsimplex-constant", "nsimplex-su2toffoli"]
        trials, vectors = 2, 3
        alone = self._alone(names, trials=trials, seed=5, n=3, mode="matrixfree", vectors=vectors)
        sizes = self._counted_draws(monkeypatch)
        report = campaign(names, trials=trials, seed=5, n=3, mode="matrixfree", vectors=vectors)
        assert sizes == [6] * (trials * vectors)
        for check in report.checks:
            assert check.residuals == alone[check.check].residuals
            assert check.raw_residuals == alone[check.check].raw_residuals

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
        (["nsimplex-constant", "constant-vertex"], {"n": 4, "mode": "matrixfree"}, [10, 6]),
        (["su2-tetra-vertex", "nsimplex-constant"], {"n": 3}, [6]),
    ], ids=["two-sizes", "dense-and-matrixfree"])
    def test_mixed_sizes_or_modes_share_nothing(self, monkeypatch, names, kwargs, sizes):
        trials, vectors = 2, 2
        alone = self._alone(names, trials=trials, seed=3, vectors=vectors, **kwargs)
        drawn = self._counted_draws(monkeypatch)
        report = campaign(names, trials=trials, seed=3, vectors=vectors, **kwargs)
        assert sorted(drawn) == sorted(sizes * trials * vectors)
        for check in report.checks:
            assert check.residuals == alone[check.check].residuals

    def test_vectors_come_from_a_stream_apart_from_the_checks_parameters(self, monkeypatch):
        # every check draws its parameters from default_rng(trial seed); a
        # vector from that stream would repeat those normals (at seed 7 the
        # first three set site 1's axis of nsimplex-su2toffoli)
        equation = CHECKS["nsimplex-su2toffoli"].fn(7, n=3)[0]
        drawn = []

        def recording(n, rng):
            drawn.append(random_state(n, rng))
            return drawn[-1]

        monkeypatch.setattr(verify, "random_state", recording)
        reversal_residual(*equation, "matrixfree", 1, 7)
        assert not np.allclose(drawn[0], random_state(6, np.random.default_rng(7)))

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

    @pytest.mark.parametrize("name", ["nsimplex-constant", "nsimplex-su2toffoli"])
    def test_a_15_site_matrixfree_residual_peaks_at_four_state_vectors(self, name):
        # three kernel buffers and the drawn vector, plus the draw's 128 KiB
        # work array: 4.25 vectors of 512 KiB; keeping the previous vector
        # alive while the next one is drawn makes it 5.25
        equation = CHECKS[name].fn(3, n=5)[0]
        reversal_residual(*equation, "matrixfree", 2, 0)
        tracemalloc.start()
        try:
            reversal_residual(*equation, "matrixfree", 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**15 * 16

    def test_two_15_site_checks_peak_like_one(self):
        # the draw and the three kernel buffers are shared, so a second check
        # adds only its factor matrices (16 KiB each), held while the vectors
        # run; its own buffers or a second live vector would add 512 KiB
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
