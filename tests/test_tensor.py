import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexgates import operators, tensor, verify
from simplexgates.gates import CCNOT, CCZ
from simplexgates.tensor import (
    apply,
    apply_product,
    arity_of,
    embed,
    frobenius_distance,
    identity,
    kron,
    random_operator,
    random_state,
    random_unitary,
    save_operator,
)

from reference import (apply_dense, embed_by_kron, is_unitary, product, read_operator,
                       site_equation)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = (X + Z) / np.sqrt(2)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def permutation_embed_oracle(gate, sites, n):
    """Brute-force embedding of a monomial gate by relabeling every basis
    state directly: bit w of index idx is site w+1 (site 1 most significant)."""
    k = len(sites)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - w)) & 1 for w in range(n)]
        small_in = sum(bits[s - 1] << (k - 1 - j) for j, s in enumerate(sites))
        col = gate[:, small_in]
        small_out = int(np.argmax(np.abs(col)))
        new_bits = list(bits)
        for j, s in enumerate(sites):
            new_bits[s - 1] = (small_out >> (k - 1 - j)) & 1
        out_idx = sum(b << (n - 1 - w) for w, b in enumerate(new_bits))
        out[out_idx, idx] = col[small_out]
    return out


def dyadic_matrix(rng, shape=(2, 2)):
    # multiples of 1/16: all products in a triple Kronecker product are
    # exactly representable, so associativity can be asserted bit for bit
    return (rng.integers(-8, 9, shape) + 1j * rng.integers(-8, 9, shape)) / 16.0


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(I2, I2), np.eye(4, dtype=complex))

    def test_zz(self):
        assert np.array_equal(kron(Z, Z), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_x_with_diag(self):
        # block form [[0*D, 1*D], [1*D, 0*D]] with D = diag(0, 1) puts the
        # ones at (row, col) = (2, 4) and (4, 2) under 1-based indexing
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = 1
        expected[3, 1] = 1
        assert np.array_equal(kron(X, np.diag([0.0, 1.0])), expected)

    def test_variadic_matches_nested(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_operator(1, rng) for _ in range(3))
        assert np.array_equal(kron(a, b, c), kron(kron(a, b), c))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_associativity_bitexact_on_dyadic_entries(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (dyadic_matrix(rng) for _ in range(3))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_bit_identical_to_chained_np_kron(self, count):
        # mixed 2x2 and 4x4 factors, one of them a real (and strided) view
        rng = np.random.default_rng(60 + count)
        for _ in range(10):
            factors = [random_operator(int(rng.integers(1, 3)), rng) for _ in range(count)]
            real = int(rng.integers(count))
            factors[real] = factors[real].real
            copies = [f.copy() for f in factors]
            expected = np.kron(np.asarray(factors[0], dtype=complex), factors[1])
            for m in factors[2:]:
                expected = np.kron(expected, m)
            out = kron(*factors)
            assert out.dtype == complex
            assert np.array_equal(out, expected)
            assert all(np.array_equal(f, c) for f, c in zip(factors, copies))

    def test_associativity_generic_entries_close(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (random_operator(1, rng) for _ in range(3))
            lhs, rhs = kron(kron(a, b), c), kron(a, kron(b, c))
            assert np.linalg.norm(lhs - rhs) <= 1e-15 * np.linalg.norm(lhs)


class TestShapes:
    def test_arity_of(self):
        assert arity_of(I2) == 1
        assert arity_of(np.eye(8)) == 3

    @pytest.mark.parametrize("bad", [np.ones((3, 3)), np.ones((2, 4)), np.ones(4), np.ones((1, 1))])
    def test_arity_rejects(self, bad):
        with pytest.raises(ValueError):
            arity_of(bad)


class TestEmbed:
    def test_single_site(self):
        assert np.array_equal(embed(Z, (1,), 2), kron(Z, I2))
        assert np.array_equal(embed(Z, (2,), 2), kron(I2, Z))

    def test_swap_is_slot_order_symmetric(self):
        assert np.allclose(embed(SWAP, (2, 1), 2), SWAP, atol=0)

    def test_cnot_reversed_sites_matches_relabeling_oracle(self):
        got = embed(CNOT, (3, 1), 3)
        assert np.array_equal(got, permutation_embed_oracle(CNOT, (3, 1), 3))

    def test_random_sites_match_relabeling_oracle(self):
        for sites in [(1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)]:
            got = embed(CCNOT, sites, 4)
            assert np.array_equal(got, permutation_embed_oracle(CCNOT, sites, 4))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="sites"):
            embed(CNOT, (1,), 3)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            embed(Z, (4,), 3)
        with pytest.raises(ValueError, match="outside"):
            embed(Z, (0,), 3)

    def test_duplicate_site(self):
        with pytest.raises(ValueError, match="duplicate"):
            embed(CNOT, (2, 2), 3)

    def test_equals_the_kron_and_transpose_reference(self):
        # array_equal takes 0.0 == -0.0: the two may differ only in the sign of a zero
        rng = np.random.default_rng(6)
        for n in range(1, 8):
            for k in range(1, n + 1):
                sites = tuple(int(s) + 1 for s in rng.permutation(n)[:k])
                op = random_operator(k, rng)
                assert np.array_equal(embed(op, sites, n), embed_by_kron(op, sites, n))

    def test_peak_is_about_its_result(self):
        # a 3-site operator on 8 sites: the 1 MiB result, and no 4**n
        # Kronecker product or transposed copy beside it
        op = random_operator(3, np.random.default_rng(7))
        tracemalloc.start()
        try:
            embed(op, (6, 2, 4), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_disjoint_supports_commute(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_operator(1, rng)
            b = random_operator(2, rng)
            ea = embed(a, (2,), 4)
            eb = embed(b, (4, 1), 4)
            assert np.linalg.norm(ea @ eb - eb @ ea) < 1e-13


class TestApply:
    def test_bit_flip(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1  # |000>
        out = apply(X, (1,), v)
        expected = np.zeros(8, dtype=complex)
        expected[4] = 1  # |100>
        assert np.array_equal(out, expected)

    def test_ccnot_fires_on_both_controls(self):
        v = np.zeros(8, dtype=complex)
        v[0b110] = 1
        out = apply(CCNOT, (1, 2, 3), v)
        assert out[0b111] == 1 and np.linalg.norm(out) == 1

    def test_matches_embed_all_small_arities(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            k = 1 + trial % 3
            op = random_operator(k, rng)
            sites = tuple(int(s) + 1 for s in rng.permutation(6)[:k])
            v = random_state(6, rng)
            assert np.linalg.norm(apply(op, sites, v) - embed(op, sites, 6) @ v) < 1e-13
            block = np.stack([v, random_state(6, rng), random_state(6, rng)], axis=1)
            out = apply(op, sites, block)
            by_column = np.stack([apply(op, sites, c) for c in block.T], axis=1)
            assert np.linalg.norm(out - by_column) < 1e-13
            assert np.linalg.norm(out - embed(op, sites, 6) @ block) < 1e-13

    def test_register_size_must_match_sites(self):
        with pytest.raises(ValueError):
            apply(X, (4,), np.zeros(8, dtype=complex))
        with pytest.raises(ValueError):
            apply(CNOT, (1,), np.zeros(8, dtype=complex))


class TestApplyProduct:
    @staticmethod
    def _random_factors(rng, count):
        # arity 1-3 on 6 sites; sites are drawn independently per factor,
        # so consecutive factors share sites
        factors = []
        for _ in range(count):
            k = int(rng.integers(1, 4))
            sites = tuple(int(s) + 1 for s in rng.permutation(6)[:k])
            factors.append((random_operator(k, rng), sites))
        return factors

    def test_matches_product_of_embeds(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            factors = self._random_factors(rng, trial % 5)
            dense = identity(6)
            for op, sites in factors:
                dense = dense @ embed(op, sites, 6)
            v = random_state(6, rng)
            block = np.stack([v, random_state(6, rng), random_state(6, rng)], axis=1)
            scale = max(1.0, float(np.linalg.norm(dense)))
            assert np.linalg.norm(apply_product(factors, v) - dense @ v) < 1e-13 * scale
            assert np.linalg.norm(apply_product(factors, block) - dense @ block) < 1e-13 * scale

    def test_empty_product_is_a_copy_of_the_state(self):
        v = random_state(3, np.random.default_rng(25))
        out = apply_product([], v)
        assert np.array_equal(out, v) and not np.shares_memory(out, v)

    def test_inputs_are_not_mutated(self):
        rng = np.random.default_rng(26)
        factors = self._random_factors(rng, 4)
        block = np.stack([random_state(6, rng) for _ in range(3)], axis=1)
        before = block.copy(), [op.copy() for op, _ in factors]
        apply_product(factors, block)
        assert np.array_equal(block, before[0])
        assert all(np.array_equal(op, kept) for (op, _), kept in zip(factors, before[1]))

    @pytest.mark.parametrize("state", [np.array(1.0 + 0j), np.zeros((4, 0)), np.zeros(0)])
    def test_state_without_entries_is_refused_naming_its_shape(self, state):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(state.shape))}"):
            apply_product([(X, (1,))], state)

    @pytest.mark.parametrize("shape", [(6, 2), (6,), (1,), (1, 3), (12, 1, 2)])
    def test_bad_leading_dimension_is_refused_naming_the_whole_shape(self, shape):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}"):
            apply_product([(X, (1,))], np.zeros(shape))

    def test_every_factor_is_validated(self):
        v = np.zeros(8, dtype=complex)
        with pytest.raises(ValueError, match="outside register"):
            apply_product([(X, (1,)), (X, (4,))], v)
        with pytest.raises(ValueError, match="duplicate"):
            apply_product([(CNOT, (2, 2)), (X, (1,))], v)
        with pytest.raises(ValueError, match="sites"):
            apply_product([(X, (1,)), (CNOT, (1,))], v)


class TestProduct:
    def test_matches_product_of_embeds(self):
        # lists of 0-2 factors leave some of the 6 sites untouched
        rng = np.random.default_rng(31)
        for trial in range(100):
            factors = TestApplyProduct._random_factors(rng, trial % 5)
            dense = identity(6)
            for op, sites in factors:
                dense = dense @ embed(op, sites, 6)
            scale = max(1.0, float(np.linalg.norm(dense)))
            assert np.linalg.norm(product(factors, 6) - dense) < 1e-13 * scale

    def test_empty_product_is_the_identity(self):
        for n in (1, 3):
            assert np.array_equal(product([], n), identity(n))

    def test_untouched_sites_see_the_identity(self):
        out = product([(CNOT, (3, 1))], 3)
        assert np.array_equal(out, embed(CNOT, (3, 1), 3))

    def test_inputs_are_not_mutated(self):
        rng = np.random.default_rng(32)
        factors = TestApplyProduct._random_factors(rng, 4)
        before = [op.copy() for op, _ in factors]
        product(factors, 6)
        assert all(np.array_equal(op, kept) for (op, _), kept in zip(factors, before))

    def test_every_factor_is_validated(self):
        with pytest.raises(ValueError, match="outside register"):
            product([(X, (1,)), (X, (4,))], 3)
        with pytest.raises(ValueError, match="duplicate"):
            product([(CNOT, (2, 2)), (X, (1,))], 3)
        with pytest.raises(ValueError, match="sites"):
            product([(X, (1,)), (CNOT, (1,))], 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_the_identity_block(self, seed):
        rng = np.random.default_rng(seed)
        assignment = verify.random_su2_assignment(10, rng)
        alpha = float(rng.uniform(0, 2 * np.pi))
        for variant in operators.FOUR_SIMPLEX_VARIANTS:
            factors = [(operators.su2_4simplex(*(assignment[s - 1] for s in tup), alpha=alpha,
                                               variant=variant), tup)
                       for tup in verify.index_scheme(4)]
            for side in (factors, factors[::-1]):
                assert np.array_equal(product(side, 10), apply_product(side, np.eye(1024)))

    def test_dense_4simplex_trial_allocation_peak(self):
        # two 16 MiB sides and their difference; the 2**10 identity block
        # that every factor used to run over peaked at 80 MiB
        tracemalloc.start()
        try:
            verify.campaign(["su2-4simplex-vertex"], trials=1, seed=0, mode="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * 2**20

    def test_dense_4simplex_trial_peak_is_three_residual_blocks(self):
        # the kernel's two buffers and the kept left side, 16 MiB each; the
        # difference is written over the kernel's gather buffer
        tracemalloc.start()
        try:
            verify.campaign(["su2-4simplex-vertex"], trials=1, seed=0, mode="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 52 * 2**20

    def test_dense_4simplex_trial_peak_is_three_column_blocks(self):
        # three buffers of one 512 KiB column block per thread, two threads
        # given two CPUs, so about 3.1 MiB in all; whole 16 MiB sides peaked at 64 MiB
        tracemalloc.start()
        try:
            verify.campaign(["su2-4simplex-vertex"], trials=1, seed=0, mode="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("mode", verify.MODES)
def test_residual_is_unchanged_by_clearing_the_plan_cache(mode):
    # plans are keyed on structure alone, so a replayed plan, one built
    # fresh and one reused for other values of the same structure agree
    rng = np.random.default_rng(8)
    factors = [(random_unitary(3, rng), t) for t in verify.index_scheme(3)]
    other = [(random_unitary(3, rng), t) for t in verify.index_scheme(3)]
    tensor._plan.cache_clear()
    fresh = verify.reversal_residual(factors, 6, mode)
    verify.reversal_residual(other, 6, mode)
    assert tensor._plan.cache_info().hits > 0
    assert verify.reversal_residual(factors, 6, mode) == fresh
    tensor._plan.cache_clear()
    assert verify.reversal_residual(factors, 6, mode) == fresh


class TestPinnedBlocks:
    """Dense residuals build each side one column block at a time, with
    the column bits of sites 1..m pinned: every block must be exactly the
    matching columns of the whole product."""

    @staticmethod
    def _assert_blocks_match_product(factors, n):
        m = max(0, 2 * n - tensor._BLOCK_BITS)
        assert m > 0
        whole = product(factors, n)
        placed = tensor._placed(factors, n)
        work = (np.empty(4**n >> m, dtype=complex), np.empty(4**n >> m, dtype=complex))
        width = 2 ** (n - m)
        for b, bits in enumerate(itertools.product((0, 1), repeat=m)):
            pins = dict(enumerate(bits, 1))
            view = tensor._replay(tensor._program(placed, n, work, pinned=frozenset(pins)), pins)
            assert view.shape == (2,) * (2 * n - m)
            assert np.array_equal(view.reshape(2**n, width), whole[:, b * width:(b + 1) * width])

    @pytest.mark.parametrize("variant", operators.FOUR_SIMPLEX_VARIANTS)
    def test_su2_4simplex_blocks(self, variant):
        rng = np.random.default_rng(51)
        assignment = verify.random_su2_assignment(10, rng)
        alpha = float(rng.uniform(0, 2 * np.pi))
        eq = site_equation(
            verify.index_scheme(4),
            lambda ps: operators.su2_4simplex(*ps, alpha=alpha, variant=variant), assignment)
        for side in (eq.factors, eq.factors[::-1]):
            self._assert_blocks_match_product(side, 10)

    def test_random_unitary_blocks(self):
        rng = np.random.default_rng(52)
        factors = [(random_unitary(4, rng), t) for t in verify.index_scheme(4)]
        for side in (factors, factors[::-1]):
            self._assert_blocks_match_product(side, 10)

    def test_untouched_pinned_site_is_a_basis_column(self):
        # 9 sites pin sites 1 and 2; no factor touches site 1, a diagonal
        # factor first reaches pinned site 2
        rng = np.random.default_rng(53)
        diag = np.diag(random_operator(2, rng).diagonal())
        factors = [(random_unitary(3, rng), (4, 5, 3)), (diag, (2, 6)),
                   (random_unitary(4, rng), (9, 3, 7, 8))]
        for side in (factors, factors[::-1]):
            self._assert_blocks_match_product(side, 9)


class TestDiagonalFactors:
    """Factors whose off-diagonal entries are exactly zero multiply the
    working tensor by their diagonal instead of gathering it and running a
    GEMM, once every site of the factor has a row axis."""

    @staticmethod
    def _mixed_factors(rng, count):
        # arity 1-3 on 6 sites, each factor diagonal or dense at random; the
        # diagonal entries differ, so a diagonal laid onto the wrong axes
        # changes the product
        factors = []
        for _ in range(count):
            k = int(rng.integers(1, 4))
            sites = tuple(int(s) + 1 for s in rng.permutation(6)[:k])
            op = random_operator(k, rng)
            factors.append((np.diag(np.diagonal(op)) if rng.integers(2) else op, sites))
        return factors

    @staticmethod
    def _embedded(factors, n=6):
        dense = identity(n)
        for op, sites in factors:
            dense = dense @ embed(op, sites, n)
        return dense

    def test_random_mixes_match_the_product_of_embeds(self):
        rng = np.random.default_rng(41)
        for trial in range(100):
            factors = self._mixed_factors(rng, 1 + trial % 6)
            dense = self._embedded(factors)
            v = random_state(6, rng)
            block = np.stack([v, random_state(6, rng), random_state(6, rng)], axis=1)
            scale = max(1.0, float(np.linalg.norm(dense)))
            assert np.linalg.norm(product(factors, 6) - dense) < 1e-13 * scale
            assert np.linalg.norm(apply_product(factors, v) - dense @ v) < 1e-13 * scale
            assert np.linalg.norm(apply_product(factors, block) - dense @ block) < 1e-13 * scale

    def test_diagonal_factor_first_to_reach_a_site(self):
        # the diagonal factor on (3, 1, 2) reaches site 3 before any other
        # factor, so it builds that site's axes by GEMM; site 4 stays untouched
        rng = np.random.default_rng(42)
        diag = np.diag(random_operator(3, rng).diagonal())
        for factors in ([(diag, (3, 1, 2)), (random_operator(2, rng), (2, 1))],
                        [(diag, (3, 1, 2))]):
            assert np.linalg.norm(product(factors, 4) - self._embedded(factors, 4)) < 1e-13 * 8

    def test_a_tiny_off_diagonal_entry_keeps_the_gemm(self):
        # 1e-300 times a state entry of 1e300 contributes 1.0, which a factor
        # wrongly taken for diagonal would drop
        op = np.diag([2.0, 3.0]).astype(complex)
        op[0, 1] = 1e-300
        v = np.zeros(8, dtype=complex)
        v[0b010] = 1e300
        expected = embed(op, (2,), 3) @ v
        assert expected[0b000] == pytest.approx(1.0)
        assert np.allclose(apply_product([(op, (2,))], v), expected, rtol=1e-15, atol=0)
        big = np.array([[0, 0], [1e300, 0]], dtype=complex)
        factors = [(op, (2,)), (big, (2,))]
        assert np.allclose(product(factors, 3), self._embedded(factors, 3), rtol=1e-15, atol=0)

    @staticmethod
    def _broadcast(t, entries, sites):
        # the whole-tensor multiply: the diagonal, its slots sorted by site,
        # broadcast onto the sites' axes of a (2,) * n + (batch,) tensor
        shape = [2 if s in sites else 1 for s in range(1, t.ndim)] + [1]
        d = entries.reshape((2,) * len(sites)).transpose(np.argsort(sites))
        return t * d.reshape(shape)

    def test_only_entries_that_are_not_one_are_multiplied_with_the_same_bits(self):
        rng = np.random.default_rng(44)
        entries = random_operator(3, rng).diagonal().copy()
        entries[[0, 2, 3, 6]] = 1
        diag, sites, u = np.diag(entries), (5, 2, 4), random_operator(1, rng)
        assert [bits for bits, _ in tensor._placed([(diag, sites)], 6)[0][2]] == [
            (0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]
        v = random_state(6, rng)
        for state in (v, np.stack([v, random_state(6, rng)], axis=1)):
            kept = state.copy()
            tensor_shape = (2,) * 6 + (-1,)
            # first, on the caller's state, which is copied before it is multiplied
            got = apply_product([(diag, sites)], state)
            expected = self._broadcast(kept.reshape(tensor_shape), entries, sites)
            assert np.array_equal(got, expected.reshape(state.shape))
            # later, in place on the working tensor that u's GEMM left
            got = apply_product([(diag, sites), (u, (3,))], state)
            expected = self._broadcast(apply_product([(u, (3,))], state).reshape(tensor_shape),
                                       entries, sites)
            assert np.array_equal(got, expected.reshape(state.shape))
            assert np.array_equal(state, kept)

    def test_state_is_neither_mutated_nor_aliased(self):
        # the diagonal factor acts first, on the caller's state itself
        rng = np.random.default_rng(43)
        diag = np.diag(random_operator(2, rng).diagonal())
        v = random_state(6, rng)
        block = np.stack([v, random_state(6, rng)], axis=1)
        for state in (v, block, block.T.copy().T):
            kept = state.copy()
            for factors in ([(diag, (4, 2))], [(random_operator(1, rng), (3,)), (diag, (4, 2))]):
                out = apply_product(factors, state)
                assert np.array_equal(state, kept)
                assert not np.shares_memory(out, state)
                expected = self._embedded(factors) @ kept
                assert np.linalg.norm(out - expected) < 1e-13 * max(1.0, np.linalg.norm(expected))


def _su2toffoli_factors(n, seed):
    # one nsimplex-su2toffoli equation's factors on n(n + 1)/2 sites, each
    # (operator, sites, (U, Vh)) with its supplied rank-2 form
    return list(verify.CHECKS["nsimplex-su2toffoli"].fn(seed, n=n)[0].factors)


def _identity_plus(rng, d, rank):
    # the d x d identity plus U Vh, U and Vh / d complex Gaussian of the given
    # rank, with its (U, Vh)
    u = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    vh = (rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))) / d
    return np.eye(d) + u @ vh, (u, vh)


def _form_of(factor, n):
    # the (U, Vh) that placing one factor on an n-site register keeps, or None
    return tensor._placed([factor], n)[0][3]


class TestFactoredFactors:
    """A non-diagonal factor of at least 5 sites whose supplied form F - 1 =
    U Vh has rank r < d/4 and misses F - 1 by at most d * eps * ||F - 1||_F
    multiplies as U (Vh g) + g; every other factor keeps its GEMM or
    diagonal multiply."""

    @staticmethod
    def _remainder_over_bound(op, form):
        a = op - np.eye(len(op))
        u, vh = form
        return np.linalg.norm(a - u @ vh) / (len(op) * np.finfo(float).eps * np.linalg.norm(a))

    @pytest.mark.parametrize("n", [5, 6])
    def test_every_su2toffoli_factor_is_rank_two_within_the_bound(self, n):
        for seed in range(3):
            for op, sites, form in _su2toffoli_factors(n, seed):
                u, vh = form
                assert u.shape == (2**n, 2) and vh.shape == (2, 2**n)
                assert self._remainder_over_bound(op, form) <= 1
                [(_, _, diag, placed)] = tensor._placed([(op, sites, form)], n * (n + 1) // 2)
                assert diag is None and all(map(np.array_equal, placed, form))

    @pytest.mark.parametrize("k", [5, 6])
    def test_rank_below_a_quarter_is_accepted_and_from_a_quarter_refused(self, k):
        rng, d = np.random.default_rng(62 + k), 2**k
        op, form = _identity_plus(rng, d, d // 4 - 1)
        assert self._remainder_over_bound(op, form) <= 1
        assert _form_of((op, range(1, k + 1), form), k)[0].shape == (d, d // 4 - 1)
        for rank in (d // 4, d // 4 + 1, d):
            op, form = _identity_plus(rng, d, rank)
            assert self._remainder_over_bound(op, form) <= 1
            assert _form_of((op, range(1, k + 1), form), k) is None

    def test_no_form_is_used_below_five_sites(self):
        # CCNOT - 1 has rank 1, and so has every factor made here: under 5
        # sites the GEMM is as fast, so the dense and small-check paths are unchanged
        rng = np.random.default_rng(64)
        flip = np.array([[0, 0, 0, 0, 0, 0, 1, -1]]).T
        assert self._remainder_over_bound(CCNOT, (flip, -flip.T)) == 0
        assert _form_of((CCNOT, (1, 2, 3), (flip, -flip.T)), 3) is None
        for k in (1, 2, 3, 4):
            op, form = _identity_plus(rng, 2**k, 1)
            assert _form_of((op, range(1, k + 1), form), k) is None
        op, form = operators._su2_toffoli_factor(verify.random_su2_assignment(4, rng))
        assert self._remainder_over_bound(op, form) <= 1
        assert _form_of((op, (1, 2, 3, 4), form), 4) is None
        # a diagonal factor keeps its diagonal multiply, whatever form it carries
        constant, corner = operators.n_simplex_constant(5, 0.3), np.eye(32)[:, 30:]
        form = (corner * (np.diagonal(constant)[30:] - 1), corner.T)
        assert self._remainder_over_bound(constant, form) <= 1
        [(_, _, diag, placed)] = tensor._placed([(constant, (1, 2, 3, 4, 5), form)], 5)
        assert diag is not None and placed is None

    def test_a_full_rank_perturbation_of_1e_12_is_refused(self):
        rng = np.random.default_rng(65)
        op, form = _identity_plus(rng, 64, 2)
        for op, _, form in _su2toffoli_factors(5, 0)[:3] + [(op, None, form)]:
            sites = range(1, arity_of(op) + 1)
            assert _form_of((op, sites, form), 6) is not None
            perturbed = op + 1e-12 * random_operator(arity_of(op), rng)
            assert _form_of((perturbed, sites, form), 6) is None

    def test_a_form_that_misses_its_factor_is_not_used(self):
        # U scaled by 1 + 1e-9 misses F - 1 by about 2e-9, far above the
        # bound: each factor takes the plain GEMM, so the residual is the one
        # of the same factors without forms, bit for bit, not F's with U Vh
        factors = _su2toffoli_factors(5, 4)
        missed = [(op, sites, (u * (1 + 1e-9), vh)) for op, sites, (u, vh) in factors]
        assert all(_form_of(f, 15) is None for f in missed)
        plain = [(op, sites) for op, sites, _ in factors]
        for vectors in (2, 3):
            got = verify.reversal_residual(missed, 15, "matrixfree", vectors, 4)
            assert got == verify.reversal_residual(plain, 15, "matrixfree", vectors, 4)
            assert got != verify.reversal_residual(factors, 15, "matrixfree", vectors, 4)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_a_non_finite_factor_is_refused_and_its_residual_is_not_finite(self, entry):
        # an infinite F - 1 would otherwise meet an infinite bound, and the
        # factor would act as its finite form
        factors = _su2toffoli_factors(5, 3)
        op, sites, form = factors[1]
        op = op.copy()
        op[3, 5] = entry
        factors[1] = (op, sites, form)
        assert _form_of(factors[1], 15) is None
        with np.errstate(invalid="ignore", over="ignore"):
            _, norm = verify.reversal_residual(factors, 15, "matrixfree", 2, 0)
        assert not np.isfinite(norm)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="np.errstate is a context variable from numpy 2.0 on")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_both_halves_keep_the_callers_error_state(self, monkeypatch, cpus):
        # given two CPUs a pool thread runs the second of the two probes; an
        # infinite factor entry must then be ignored, or raise, as the caller asks
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        factors = _su2toffoli_factors(5, 3)
        op, sites, form = factors[1]
        factors[1] = (op.copy(), sites, form)
        factors[1][0][3, 5] = np.inf
        with warnings.catch_warnings(), np.errstate(invalid="ignore", over="ignore"):
            warnings.simplefilter("error")
            _, norm = verify.reversal_residual(factors, 15, "matrixfree", 2, 0)
        assert not np.isfinite(norm)
        with np.errstate(invalid="raise", over="ignore"), pytest.raises(FloatingPointError):
            verify.reversal_residual(factors, 15, "matrixfree", 2, 0)

    def test_the_form_check_calls_no_lapack(self, monkeypatch):
        factor = _su2toffoli_factors(5, 0)[0]
        op, sites, form = factor
        perturbed = (op + 1e-12 * random_operator(5, np.random.default_rng(66)), sites, form)

        def refused(*args, **kwargs):
            raise AssertionError("the form check called LAPACK")

        for name in ("svd", "qr", "eig", "eigh", "eigvals", "eigvalsh", "lstsq", "solve", "inv",
                     "pinv", "matrix_rank", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refused)
        assert _form_of(factor, 15) is not None
        assert _form_of(perturbed, 15) is None

    @staticmethod
    def _mix(rng, n, count):
        # a low-rank 5- or 6-site factor (U and Vh of rank 1-3) with its form
        # first, then low-rank, diagonal and dense 1- to 3-site factors at
        # random, each on sites in a random order
        factors = []
        for i in range(count):
            kind = 0 if i == 0 else int(rng.integers(3))
            k = int(rng.integers(5, 7)) if kind == 0 else int(rng.integers(1, 4))
            op, extra = random_operator(k, rng), ()
            if kind == 0:
                op, form = _identity_plus(rng, 2**k, int(rng.integers(1, 4)))
                extra = (form,)
            elif kind == 1:
                op = np.diag(np.diagonal(op))
            factors.append((op, tuple(int(s) + 1 for s in rng.permutation(n)[:k]), *extra))
        return factors

    def test_low_rank_mixes_match_the_product_of_embeds(self):
        rng, n = np.random.default_rng(67), 8
        for trial in range(30):
            factors = self._mix(rng, n, 2 + trial % 5)
            assert tensor._placed(factors, n)[0][3] is not None
            dense = identity(n)
            for op, sites, *_ in factors:
                dense = dense @ embed(op, sites, n)
            scale = max(1.0, float(np.linalg.norm(dense)))
            v = random_state(n, rng)
            block = np.stack([v, random_state(n, rng), random_state(n, rng)], axis=1)
            for state in (v, block):
                kept = state.copy()
                assert np.linalg.norm(apply_product(factors, state) - dense @ kept) < 1e-13 * scale
                assert np.array_equal(state, kept)
            assert np.linalg.norm(product(factors, n) - dense) < 1e-13 * scale

    def test_a_perturbed_su2toffoli_factor_shows_in_the_matrix_free_residual(self):
        # 1e-9 times a Gaussian matrix on one factor of an n = 5 equation, which
        # keeps its now stale form: the kernel's residual, over its
        # sqrt(2**N / vectors) scale, matches the root-sum-of-squares made from
        # whole factor matrices on the same vectors, to 1e-12 of ||L v|| = 1,
        # so neither the stale form nor the other factors' forms hide anything
        size, vectors, seed = 15, 3, 72
        factors = _su2toffoli_factors(5, seed)
        op, sites, form = factors[2]
        factors[2] = (op + 1e-9 * random_operator(5, np.random.default_rng(seed)), sites, form)
        assert _form_of(factors[2], size) is None
        vector_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        raws, lefts = [], []
        dense_factors = [f[:2] for f in factors]
        for _ in range(vectors):
            v = tensor._fill_state(np.empty(2**size, dtype=complex), vector_rng)
            left = apply_dense(dense_factors, v)
            raws.append(np.linalg.norm(left - apply_dense(dense_factors[::-1], v)))
            lefts.append(np.linalg.norm(left))
        raw, norm = verify.reversal_residual(factors, size, "matrixfree", vectors, seed)
        assert min(r / l for r, l in zip(raws, lefts)) > 1e-10
        rss = np.sqrt(np.sum(np.square(raws)))
        assert abs(raw / np.sqrt(2**size / vectors) - rss) <= 1e-12
        assert abs(norm - rss / np.sqrt(np.sum(np.square(lefts)))) <= 1e-12
        factors[2] = (op, sites, form)
        assert verify.reversal_residual(factors, size, "matrixfree", vectors, seed)[1] < 1e-14


class TestPredicates:
    def test_frobenius_zero_on_equal(self):
        assert frobenius_distance(X, X) == 0.0

    def test_frobenius_identity_vs_z(self):
        assert frobenius_distance(I2, Z) == pytest.approx(2.0, abs=0)

    def test_frobenius_toffoli_vs_ccz(self):
        # both differ only in the bottom 2x2 block: ||X - diag(1,-1)||_F = 2
        block = X - np.diag([1.0, -1.0])
        assert np.linalg.norm(block) == pytest.approx(2.0)
        assert frobenius_distance(CCNOT, CCZ) == pytest.approx(2.0, abs=1e-15)

    def test_frobenius_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            frobenius_distance(X, SWAP)

    def test_is_unitary(self):
        assert is_unitary(H)
        assert not is_unitary(np.diag([1.0, 2.0]).astype(complex))

    def test_is_unitary_detects_scaled_projector_term(self):
        # sign-flip solution with its projector term halved is no longer unitary
        damped = identity(3) - np.diag([0.0] * 7 + [1.0]).astype(complex)
        assert not is_unitary(damped)

    def test_tolerance_check(self):
        # is_unitary allows ||a a+ - 1||_F <= 1e-10 + 1e-12 * sqrt(2**k): a
        # deviation past the absolute part but inside the relative slack
        # passes, one past both fails
        for k in (1, 3):
            slack = 1e-12 * np.sqrt(2**k)
            for deviation, unitary in ((1e-10 + slack / 2, True), (1e-10 + 1.5 * slack, False)):
                a = identity(k)
                a[0, 0] = np.sqrt(1.0 + deviation)
                measured = np.linalg.norm(a @ a.conj().T - identity(k))
                assert abs(measured - deviation) < slack / 8
                assert is_unitary(a) is unitary


class TestOperatorFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        op = random_operator(2, rng)
        path = tmp_path / "op.json"
        save_operator(op, path)
        assert np.array_equal(read_operator(path), op)

    def test_dict_shape(self, tmp_path):
        path = tmp_path / "x.json"
        save_operator(X, path)
        d = json.loads(path.read_text())
        assert d["arity"] == 1 and d["dim"] == 2
        assert d["entries"] == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_is_refused_before_writing(self, bad, tmp_path):
        # NaN and Infinity are not JSON: the file would not load elsewhere
        op = identity(1).astype(complex)
        op[1, 0] = bad
        path = tmp_path / "op.json"
        with pytest.raises(ValueError):
            save_operator(op, path)
        assert not path.exists()


    def test_a_non_finite_entry_leaves_an_existing_file_as_it_was(self, tmp_path):
        path = tmp_path / "op.json"
        save_operator(X, path)
        kept = path.read_bytes()
        op = identity(1)
        op[1, 0] = np.nan
        with pytest.raises(ValueError):
            save_operator(op, path)
        assert path.read_bytes() == kept


@pytest.mark.parametrize("n", [1, 3, 8, 15])
def test_random_state_is_one_uniform_draw(n):
    # 2**(n+1) uniforms in one call, read pairwise as (real, imaginary) and
    # centred, and the stream left just after them
    ref_rng, rng = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
    v = ref_rng.random(2 ** (n + 1)).view(complex) - (0.5 + 0.5j)
    assert np.array_equal(random_state(n, rng), v / np.linalg.norm(v))
    assert np.array_equal(rng.random(3), ref_rng.random(3))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 15])
def test_a_probe_reads_its_signs_from_the_raw_words(n):
    # part b of the float64 view, the real part of amplitude b // 2 for even
    # b and its imaginary part for odd, is negative where bit b % 64 of word
    # b // 64 is set, counting from the least significant; the stream is
    # left just after the ceil(2**(n+1) / 64) words
    ref_rng, rng = np.random.default_rng(60 + n), np.random.default_rng(60 + n)
    words = [int(w) for w in ref_rng.bit_generator.random_raw(max(1, 2 ** (n + 1) // 64))]
    scale = (2.0 ** -(n + 1)) ** 0.5
    parts = [-scale if words[b // 64] >> (b % 64) & 1 else scale for b in range(2 ** (n + 1))]
    want = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    assert np.array_equal(tensor._fill_state(np.empty(2**n, dtype=complex), rng), want)
    assert np.array_equal(rng.bit_generator.random_raw(3), ref_rng.bit_generator.random_raw(3))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 15])
def test_a_probe_has_unit_norm_and_equal_amplitudes(n):
    # no normalizing pass: each |amplitude|**2 is 2**-n to rounding, so the norm is 1
    eps = np.finfo(float).eps
    v = tensor._fill_state(np.empty(2**n, dtype=complex), np.random.default_rng(n))
    assert np.allclose(np.abs(v) ** 2 * 2**n, 1.0, rtol=0, atol=4 * eps)
    assert abs(np.linalg.norm(v) - 1.0) <= 4 * eps


def test_random_state_draws_through_a_small_work_array():
    # the 16 MiB state is drawn into, centred and normalized in place; a
    # temporary of the real parts or of the whole draw would add 8 or 16 MiB
    tracemalloc.start()
    try:
        random_state(20, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2**20
