import numpy as np
import pytest

from simplexgates.gates import (
    CCNOT,
    CCZ,
    CNOT,
    CZ,
    SWAP,
    local_conjugate,
    n_toffoli,
)
from simplexgates.operators import n_simplex_su2_toffoli
from simplexgates.su2 import H, I2, AxisAngle
from simplexgates.tensor import identity, random_unitary

from reference import is_unitary


def test_ccnot_swaps_last_two_basis_states():
    expected = identity(3)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(CCNOT, expected)


def test_ccz_is_diagonal_sign_flip():
    assert np.array_equal(CCZ, np.diag([1.0] * 7 + [-1.0]).astype(complex))


def test_n_toffoli_sizes():
    got = n_toffoli(4)
    expected = identity(4)
    expected[[14, 15]] = expected[[15, 14]]
    assert np.array_equal(got, expected)
    assert np.array_equal(n_toffoli(3), CCNOT)
    assert np.array_equal(n_toffoli(2), CNOT)


def test_n_toffoli_rejects_small_n():
    with pytest.raises(ValueError):
        n_toffoli(1)


class TestLocalConjugate:
    def test_ccz_to_ccnot(self):
        assert np.linalg.norm(local_conjugate(CCZ, [I2, I2, H]) - CCNOT) < 1e-15

    def test_cz_to_cnot(self):
        assert np.linalg.norm(local_conjugate(CZ, [I2, H]) - CNOT) < 1e-15

    def test_identity_singles_are_exact(self):
        assert np.array_equal(local_conjugate(CCNOT, [I2, I2, I2]), CCNOT)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="factors"):
            local_conjugate(CCZ, [I2, H])
        with pytest.raises(ValueError, match="2x2"):
            local_conjugate(CCZ, [I2, I2, SWAP])

    def test_preserves_unitarity_and_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            singles = [random_unitary(1, rng) for _ in range(3)]
            got = local_conjugate(CCNOT, singles)
            assert is_unitary(got)
            # conjugation preserves the characteristic polynomial
            lhs, rhs = np.poly(got), np.poly(CCNOT)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reference_gate_matches_rotated_toffoli_construction(n):
    ctrl = AxisAngle((0.0, 0.0, 1.0), np.pi / 2)
    target = AxisAngle((1.0, 0.0, 0.0), np.pi / 2)
    built = n_simplex_su2_toffoli([ctrl] * (n - 1) + [target])
    assert np.linalg.norm(built - n_toffoli(n)) < 1e-14
