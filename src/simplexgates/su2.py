"""SU(2) building blocks: rotations, eigenprojectors, conjugated flips, and
the fixed single-qubit gates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "I2",
    "X",
    "Y",
    "Z",
    "H",
    "AxisAngle",
    "DegenerateEigenvaluesError",
    "rotation",
    "projector_pm",
    "rotated_x",
    "fixed_gate",
    "random_axis_angle",
]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = (X + Z) / np.sqrt(2)

_AXIS_NORM_TOL = 1e-12
# separates genuine angles at multiples of pi from float noise
_DEGENERATE_TOL = 1e-9


class DegenerateEigenvaluesError(ValueError):
    """Angle at a multiple of pi: both rotation eigenvalues coincide, so the
    rank-1 eigenprojectors are undefined."""


@dataclass(frozen=True)
class AxisAngle:
    """Rotation axis (unit 3-vector) and angle in radians."""

    axis: tuple[float, float, float]
    angle: float

    def __post_init__(self):
        axis = tuple(float(c) for c in self.axis)
        if len(axis) != 3:
            raise ValueError(f"axis needs three components, got {len(axis)}")
        norm = float(np.sqrt(sum(c * c for c in axis)))
        if abs(norm - 1.0) > _AXIS_NORM_TOL:
            raise ValueError(f"axis must be unit length, got |u| = {norm!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", float(self.angle))


def rotation(p: AxisAngle) -> np.ndarray:
    """exp(-i * angle * (sigma . axis)) in closed form.

    sigma . axis squares to the identity, so the exponential collapses to
    cos(angle) * 1 - i sin(angle) * (ux X + uy Y + uz Z); unitary with
    determinant 1.
    """
    ux, uy, uz = p.axis
    return np.cos(p.angle) * I2 - 1j * np.sin(p.angle) * (ux * X + uy * Y + uz * Z)


def projector_pm(p: AxisAngle, sign: int) -> np.ndarray:
    """Eigenprojector of rotation(p): (R - e^{+-i angle}) / (e^{-+i angle} - e^{+-i angle}).

    sign=+1 selects the e^{-i angle} eigenvector, sign=-1 the e^{+i angle}
    one.  Both are Hermitian idempotents, mutually orthogonal, sum to the
    identity, and satisfy R = e^{-i angle} P+ + e^{+i angle} P-.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    e_plus = np.exp(1j * p.angle)
    e_minus = np.exp(-1j * p.angle)
    if abs(e_plus - e_minus) < _DEGENERATE_TOL:
        raise DegenerateEigenvaluesError(
            f"angle {p.angle!r} is within {_DEGENERATE_TOL} of a multiple of pi; "
            "the rotation eigenvalues coincide"
        )
    r = rotation(p)
    if sign > 0:
        return (r - e_plus * I2) / (e_minus - e_plus)
    return (r - e_minus * I2) / (e_plus - e_minus)


def rotated_x(p: AxisAngle) -> np.ndarray:
    """X conjugated into the rotated frame: R X R+.  Hermitian, unitary,
    and involutory for every axis and angle."""
    r = rotation(p)
    return r @ X @ r.conj().T


_FIXED = {"I": I2, "X": X, "Y": Y, "Z": Z, "H": H}


def fixed_gate(name: str) -> np.ndarray:
    """Standard 2x2 gate by name: I, X, Y, Z, or H = (X + Z)/sqrt(2)."""
    try:
        return _FIXED[name.upper()].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; expected one of {sorted(_FIXED)}") from None


def random_axis_angle(rng: np.random.Generator) -> AxisAngle:
    """Axis uniform on the sphere (normalized Gaussian), angle uniform over
    [0.1, pi - 0.1], which keeps clear of the projector degeneracy at 0
    and pi."""
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    return AxisAngle((float(v[0]), float(v[1]), float(v[2])),
                     float(rng.uniform(0.1, np.pi - 0.1)))
