"""Operator families: tetrahedron and higher simplex constructions, Toffoli
gate families, constant solutions, and twisted permutations.

Most constructors here are site-local: their dependence on each site runs
through a single 2x2 operator attached to that site.  Such operators solve
the n-simplex equations identically, because every factor in the equation
touches a shared site only through polynomials in one and the same 2x2
matrix, so all the factors commute and the forward and reversed products
coincide.  general_toffoli is the exception: a site acts through an
eigenprojector when it is a control but through a conjugated flip when it
is the target, the two do not commute for generic rotations, and the
vertex-form equation fails whenever a placement shares a site between the
two roles (CCNOT, the family at its special point, is the standard
counterexample).  The 4-site edge form holds though its site 3 takes both.

An abelian family passes those equations too.  What shows that a family's
members fail to commute is not a screen at construction but the per-slot
twins of the ``verify`` checks, which give every (placement, slot) its own
parameter: only noncommuting members violate that equation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gates import SWAP, local_conjugate
from .su2 import I2, X, Z, AxisAngle, projector_pm, rotation
from .tensor import identity, kron

__all__ = [
    "CouplingConstants",
    "pauli_exp",
    "seeded_random",
    "FOUR_SIMPLEX_VARIANTS",
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
]

FOUR_SIMPLEX_VARIANTS = ("two_control", "three_control")


@dataclass(frozen=True)
class CouplingConstants:
    """Complex weights for the single-, double-, and triple-site terms of
    the generic tetrahedron operator."""

    alpha1: complex = 0.0
    alpha2: complex = 0.0
    alpha3: complex = 0.0
    beta1: complex = 0.0
    beta2: complex = 0.0
    beta3: complex = 0.0
    gamma: complex = 0.0


def pauli_exp() -> Callable[[complex], np.ndarray]:
    """Site operators exp(mu * A) with A = cos|mu| X + sin|mu| Z.

    A is an involution, so the exponential collapses to
    cosh(mu) 1 + sinh(mu) A; the axis turns with |mu|, which makes
    members with distinct parameters noncommuting.
    """

    def fn(mu: complex) -> np.ndarray:
        mu = complex(mu)
        a = np.cos(abs(mu)) * X + np.sin(abs(mu)) * Z
        return np.cosh(mu) * I2 + np.sinh(mu) * a

    return fn


def seeded_random(seed: int = 0) -> Callable[[complex], np.ndarray]:
    """Site operators: a fixed pseudo-random complex 2x2 per parameter,
    keyed by the family seed and the bit pattern of mu; bit-for-bit
    reproducible."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    # SeedSequence([seed, *words]) splits the seed into little-endian
    # uint32 words ([0] for 0); one array of all the words is the same
    # entropy, built faster, and one draw of 8 normals the same two (2, 2) draws
    head = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    layout = f"<{len(head)}Idd"

    def fn(mu: complex) -> np.ndarray:
        mu = complex(mu)
        words = np.frombuffer(struct.pack(layout, *head, mu.real, mu.imag), dtype=np.uint32)
        z = np.random.default_rng(np.random.SeedSequence(words)).standard_normal((2, 2, 2))
        return z[0] + 1j * z[1]

    return fn


def generic_tetrahedron(
    family: Callable[[complex], np.ndarray],
    mus: Sequence[complex],
    couplings: CouplingConstants,
) -> np.ndarray:
    """Three-site operator: identity plus coupling-weighted products of the
    per-site operators family(mu_i), family(mu_j), family(mu_k), each acting
    on its own tensor slot (slot order i, j, k)."""
    mu_i, mu_j, mu_k = mus
    qi, qj, qk = family(mu_i), family(mu_j), family(mu_k)
    c = couplings
    return (
        identity(3)
        + c.alpha1 * kron(qi, I2, I2)
        + c.alpha2 * kron(I2, qj, I2)
        + c.alpha3 * kron(I2, I2, qk)
        + c.beta1 * kron(qi, qj, I2)
        + c.beta2 * kron(I2, qj, qk)
        + c.beta3 * kron(qi, I2, qk)
        + c.gamma * kron(qi, qj, qk)
    )


def su2_tetrahedron(
    p_i: AxisAngle, p_j: AxisAngle, p_k: AxisAngle, alpha: float = 0.0
) -> np.ndarray:
    """Three-site rotation family

        ((1 + i Ri)/2)((1 + i Rj)/2) + (1 + Ri Rj)/2
          + e^{i alpha} ((1 - i Ri)/2)((1 - i Rj)/2) (i Rk),

    with Ri, Rj, Rk the site rotations on slots 1, 2, 3.  At
    p_i = p_j = (z, pi/2) and p_k = (x, pi/2) this equals
    toffoli_family(alpha); it is not unitary for arbitrary rotations.
    """
    ri, rj, rk = rotation(p_i), rotation(p_j), rotation(p_k)
    return (
        kron((I2 + 1j * ri) / 2, (I2 + 1j * rj) / 2, I2)
        + (identity(3) + kron(ri, rj, I2)) / 2
        + np.exp(1j * alpha) * kron((I2 - 1j * ri) / 2, (I2 - 1j * rj) / 2, 1j * rk)
    )


def toffoli_family(alpha: float) -> np.ndarray:
    """Unitary three-qubit family equal to CCNOT at alpha = 0.

    Acts as the identity unless both controls (sites 1, 2) are |1>, in
    which case the target (site 3) is flipped with phase e^{i alpha}.
    """
    p0, p1 = (I2 + Z) / 2, (I2 - Z) / 2
    return (
        kron(p0, p0, I2)
        + kron((identity(2) - kron(Z, Z)) / 2, I2)
        + np.exp(1j * alpha) * kron(p1, p1, X)
    )


def general_toffoli(p_i: AxisAngle, p_j: AxisAngle, p_k: AxisAngle) -> np.ndarray:
    """Toffoli with arbitrary control eigenbases and a rotated target flip:

        1 - P-(p_i) x P-(p_j) x (1 - R(p_k) X R(p_k)+).

    Unitary for every valid parameter triple; the control angles must stay
    away from multiples of pi (projector degeneracy).  At
    p_i = p_j = (z, pi/2) and target angle 0 this is CCNOT.

    Control slots (eigenprojectors) and the flip slot (conjugated X) are
    different functions of a site's parameter and commute only for x-like
    axes, so this family is not site-local and violates the vertex
    equation at generic parameters.
    """
    return identity(3) - kron(
        projector_pm(p_i, -1), projector_pm(p_j, -1), I2 - conjugated_site_operator(p_k, X)
    )


def constant_alpha_beta(alpha: float, beta: float) -> np.ndarray:
    """n_simplex_constant(3)'s shape with diag(e^{i alpha}, e^{i beta}) Z
    in the last factor; unitary for all real alpha, beta."""
    u = np.diag([np.exp(1j * alpha), np.exp(1j * beta)])
    return identity(3) - 0.25 * kron(I2 - Z, I2 - Z, I2 - u @ Z)


def constant_linear(a: complex, b: complex) -> np.ndarray:
    """a * 1 + b * |111><111|.  Solves the constant tetrahedron equation
    for every complex a, b, but is unitary only when |a| = |a + b| = 1."""
    out = complex(a) * identity(3)
    out[7, 7] += complex(b)
    return out


def su2_4simplex(
    p_i: AxisAngle,
    p_j: AxisAngle,
    p_k: AxisAngle,
    p_l: AxisAngle,
    alpha: float = 0.0,
    variant: str = "three_control",
) -> np.ndarray:
    """Four-site rotation family.  With A_m = (1 - i R_m)/2 on slot m and
    the flip factor i R_l on slot 4:

        two_control:    1 - A_i A_j A_k + e^{i alpha} A_i A_j (i R_l)
        three_control:  1 - A_i A_j A_k (1 - e^{i alpha} i R_l)

    Both are site-local and satisfy the 4-simplex equation, but only the
    three_control form reduces to the four-qubit Toffoli at
    p_i = p_j = p_k = (z, pi/2), p_l = (x, pi/2), alpha = 0; the
    two_control form leaves the flip controlled by two sites there.
    """
    if variant not in FOUR_SIMPLEX_VARIANTS:
        raise ValueError(f"variant must be one of {FOUR_SIMPLEX_VARIANTS}, got {variant!r}")
    a_i, a_j, a_k = ((I2 - 1j * rotation(p)) / 2 for p in (p_i, p_j, p_k))
    flip = 1j * rotation(p_l)
    out = identity(4) - kron(a_i, a_j, a_k, I2)
    if variant == "two_control":
        return out + np.exp(1j * alpha) * kron(a_i, a_j, I2, flip)
    return out + np.exp(1j * alpha) * kron(a_i, a_j, a_k, flip)


def n_simplex_constant(n: int, alpha: float = 0.0) -> np.ndarray:
    """Diagonal n-site solution
    1 - (1/2^{n-1})(1 - Z)^{x(n-1)} x (1 - e^{i alpha} Z).

    At alpha = 0 it is the sign flip on |1...1> alone.  At n = 3 it solves
    the tetrahedron equation: CCZ at alpha = 0, and its site-3 Hadamard
    conjugate is toffoli_family(alpha).  At n = 2 and alpha = 0 it is the CZ
    of the two-site (Yang-Baxter) equation, whose site-2 Hadamard conjugate
    is CNOT."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    factors = [I2 - Z] * (n - 1) + [I2 - np.exp(1j * alpha) * Z]
    return identity(n) - kron(*factors) / 2 ** (n - 1)


def n_simplex_su2_toffoli(params: Sequence[AxisAngle]) -> np.ndarray:
    """n-site Toffoli with rotated control eigenbases:

        1 - P-(p_1) x ... x P-(p_{n-1}) x (1 - i R(p_n)),

    with P-(p) = (1 - sigma . u)/2 the eigenprojector of the site rotation
    and i R(p_n) the flip factor of su2_4simplex.  The first n - 1 entries
    set the control bases (angles away from multiples of pi), the last the
    flip.  Unitary for every valid parameter list, since i R is unitary.
    With controls at (z, pi/2) and the target at (x, pi/2) this is the
    reference n-site Toffoli; at n = 4 with control angles pi/2 it equals
    su2_4simplex(..., variant="three_control").

    Both the control and the flip slot lie in span{1, sigma . u} of their
    site's rotation, so the family is site-local and satisfies the
    n-simplex equation at every assignment.
    """
    return _su2_toffoli_factor(params)[0]


def _su2_toffoli_factor(params: Sequence[AxisAngle]) -> tuple:
    """(F, (U, Vh)): F = n_simplex_su2_toffoli(params), and F - 1 = U Vh of rank 2
    from the same projectors, U = -kron(P_1[:, j_1] / P_1[j_1, j_1], ..., 1 - i R) and
    Vh = kron(P_1[j_1, :], ..., 1): a rank-1 P is P[:, j] P[j, :] / P[j, j], taking j
    at its larger diagonal entry."""
    params = list(params)
    if len(params) < 2:
        raise ValueError(f"need at least two sites, got {len(params)}")
    projs = [projector_pm(p, -1) for p in params[:-1]]
    flip = I2 - 1j * rotation(params[-1])
    pivots = [(p, int(np.diagonal(p).real.argmax())) for p in projs]
    return identity(len(params)) - kron(*projs, flip), (
        -kron(*[p[:, [j]] / p[j, j] for p, j in pivots], flip),
        kron(*[p[[j], :] for p, j in pivots], I2))


def twisted_permutation(p_1: AxisAngle, p_2: AxisAngle) -> np.ndarray:
    """SWAP conjugated by the two site rotations: (R1 x R2) SWAP (R1 x R2)+.

    Unitary and involutory; exchanges the two sites together with their
    attached parameters, in the sense that conjugating
    rotation(p_1) d rotation(p_1)+ on site 1 by this operator yields
    rotation(p_2) d rotation(p_2)+ on site 2, for any 2x2 core d.
    """
    return local_conjugate(SWAP, [rotation(p_1), rotation(p_2)])


def conjugated_site_operator(p: AxisAngle, d: np.ndarray) -> np.ndarray:
    """Single-site conjugation rotation(p) d rotation(p)+; preserves the
    spectrum of d."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {d.shape}")
    return local_conjugate(d, [rotation(p)])
