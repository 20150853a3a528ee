import numpy as np
import pytest

from simplexgates.su2 import (
    H,
    I2,
    X,
    Y,
    Z,
    AxisAngle,
    DegenerateEigenvaluesError,
    fixed_gate,
    projector_pm,
    random_axis_angle,
    rotation,
)

Z_AXIS = (0.0, 0.0, 1.0)
X_AXIS = (1.0, 0.0, 0.0)


def test_axis_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        AxisAngle((1.0, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="three"):
        AxisAngle((1.0, 0.0), 0.5)


def test_rotation_closed_forms():
    assert np.allclose(rotation(AxisAngle(Z_AXIS, np.pi / 2)), -1j * Z, atol=1e-15)
    assert np.allclose(rotation(AxisAngle(X_AXIS, np.pi / 2)), -1j * X, atol=1e-15)
    axis = tuple(np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0))
    assert np.array_equal(rotation(AxisAngle(axis, 0.0)), I2)


def test_rotation_same_axis_angles_add():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_axis_angle(rng)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        lhs = rotation(AxisAngle(p.axis, t1)) @ rotation(AxisAngle(p.axis, t2))
        rhs = rotation(AxisAngle(p.axis, t1 + t2))
        assert np.linalg.norm(lhs - rhs) < 1e-13


def test_rotation_unitary_with_unit_determinant():
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = rotation(random_axis_angle(rng))
        assert np.linalg.norm(r @ r.conj().T - I2) < 1e-13
        assert abs(np.linalg.det(r) - 1.0) < 1e-13


class TestProjectors:
    def test_z_axis_quarter_turn(self):
        p = AxisAngle(Z_AXIS, np.pi / 2)
        assert np.allclose(projector_pm(p, -1), np.diag([0.0, 1.0]), atol=1e-15)
        assert np.allclose(projector_pm(p, +1), np.diag([1.0, 0.0]), atol=1e-15)

    def test_degenerate_angle_raises(self):
        with pytest.raises(DegenerateEigenvaluesError):
            projector_pm(AxisAngle(Z_AXIS, 0.0), -1)
        with pytest.raises(DegenerateEigenvaluesError):
            projector_pm(AxisAngle(X_AXIS, np.pi), +1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            projector_pm(AxisAngle(Z_AXIS, 1.0), 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_closed_form_at_every_axis(self, sign):
        # (1 + sign sigma.u)/2 to the bit, at 500 seeded draws and on the
        # three coordinate axes
        rng = np.random.default_rng(11)
        params = [random_axis_angle(rng) for _ in range(500)]
        params += [AxisAngle(axis, 1.0) for axis in (X_AXIS, (0.0, 1.0, 0.0), Z_AXIS)]
        for p in params:
            ux, uy, uz = p.axis
            assert np.array_equal(projector_pm(p, sign), (I2 + sign * (ux * X + uy * Y + uz * Z)) / 2)

    def test_projector_algebra(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_axis_angle(rng)
            plus, minus = projector_pm(p, +1), projector_pm(p, -1)
            r = rotation(p)
            for proj in (plus, minus):
                assert np.linalg.norm(proj @ proj - proj) < 1e-13  # idempotent
                assert np.linalg.norm(proj - proj.conj().T) < 1e-13  # Hermitian
            assert np.linalg.norm(plus @ minus) < 1e-13  # orthogonal
            assert np.linalg.norm(plus + minus - I2) < 1e-13  # complete
            spectral = np.exp(-1j * p.angle) * plus + np.exp(1j * p.angle) * minus
            assert np.linalg.norm(spectral - r) < 1e-13


def test_fixed_gates():
    assert np.allclose(fixed_gate("H"), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=0)
    assert np.array_equal(fixed_gate("Z"), np.diag([1.0, -1.0]).astype(complex))
    assert np.linalg.norm(fixed_gate("H") @ fixed_gate("H") - I2) < 1e-15
    assert np.array_equal(fixed_gate("Y"), Y)
    with pytest.raises(ValueError, match="unknown gate"):
        fixed_gate("Q")


def test_random_axis_angle_respects_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_axis_angle(rng)
        assert abs(np.linalg.norm(p.axis) - 1.0) < 1e-12
        assert 0.1 <= p.angle <= np.pi - 0.1
