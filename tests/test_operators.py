import struct

import numpy as np
import pytest

from simplexgates.gates import CCNOT, CCZ, CNOT, SWAP, n_toffoli
from simplexgates.operators import (
    FOUR_SIMPLEX_VARIANTS,
    CouplingConstants,
    conjugated_site_operator,
    constant_alpha_beta,
    constant_linear,
    general_toffoli,
    generic_tetrahedron,
    n_simplex_constant,
    n_simplex_su2_toffoli,
    pauli_exp,
    seeded_random,
    su2_4simplex,
    su2_tetrahedron,
    toffoli_family,
    twisted_permutation,
)
from simplexgates.su2 import (
    H,
    I2,
    X,
    Z,
    AxisAngle,
    DegenerateEigenvaluesError,
    random_axis_angle,
)
from simplexgates.tensor import embed, identity, kron, random_unitary
from simplexgates.verify import (
    edge_scheme,
    index_scheme,
    random_mu_assignment,
    random_su2_assignment,
    reversal_residual,
)

from reference import is_unitary, role_conflicted_sites, site_equation

Z_AXIS = (0.0, 0.0, 1.0)
X_AXIS = (1.0, 0.0, 0.0)
CTRL = AxisAngle(Z_AXIS, np.pi / 2)
FLIP = AxisAngle(X_AXIS, np.pi / 2)


class TestSiteOperatorFamily:
    def test_pauli_exp_deterministic_and_noncommuting(self):
        fam = pauli_exp()
        mu, nu = 0.7 + 0.2j, -0.4 + 1.1j
        assert np.array_equal(fam(mu), fam(mu))
        comm = fam(mu) @ fam(nu) - fam(nu) @ fam(mu)
        assert np.linalg.norm(comm) > 0.01

    def test_pauli_exp_closed_form(self):
        fam = pauli_exp()
        mu = 0.3 - 0.9j
        a = np.cos(abs(mu)) * X + np.sin(abs(mu)) * Z
        assert np.allclose(fam(mu), np.cosh(mu) * I2 + np.sinh(mu) * a, atol=0)

    def test_seeded_random_keyed_by_seed_and_mu(self):
        fam0 = seeded_random(0)
        fam1 = seeded_random(1)
        mu = 0.25 + 0.5j
        assert np.array_equal(fam0(mu), fam0(mu))
        assert not np.array_equal(fam0(mu), fam1(mu))
        assert not np.array_equal(fam0(mu), fam0(mu + 1e-12))

    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 - 1])
    def test_seeded_random_is_the_two_draw_construction(self, seed):
        fam = seeded_random(seed)
        for mu in (0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 0.25 + 0.5j,
                   -3.5 - 1e-300j, 1e300 + 7j):
            words = np.frombuffer(struct.pack("<dd", mu.real, mu.imag), dtype=np.uint32)
            sub = np.random.default_rng(np.random.SeedSequence([seed, *map(int, words)]))
            old = sub.standard_normal((2, 2)) + 1j * sub.standard_normal((2, 2))
            assert fam(mu).tobytes() == old.tobytes()


class TestGenericTetrahedron:
    def test_zero_couplings_is_identity(self):
        fam = seeded_random(7)
        got = generic_tetrahedron(fam, (0.1, 0.2, 0.3), CouplingConstants())
        assert np.array_equal(got, identity(3))

    def test_single_coupling_places_operator_on_first_slot(self):
        mus = (0.5 + 0.25j, -1.0, 2.0)
        fam = pauli_exp()
        got = generic_tetrahedron(fam, mus, CouplingConstants(alpha1=1.0))
        assert np.allclose(got, identity(3) + kron(fam(mus[0]), I2, I2), atol=0)

    def test_vertex_equation_with_all_couplings(self):
        rng = np.random.default_rng(42)
        fam = seeded_random(42)
        couplings = CouplingConstants(1, 1, 1, 1, 1, 1, 1)
        residual = reversal_residual(*site_equation(
            index_scheme(3), lambda mus: generic_tetrahedron(fam, mus, couplings),
            random_mu_assignment(6, rng)))[1]
        assert residual < 1e-11

    def test_edge_equation(self):
        rng = np.random.default_rng(43)
        fam = seeded_random(43)
        couplings = CouplingConstants(*random_mu_assignment(7, rng))
        assert reversal_residual(*site_equation(
            edge_scheme(3), lambda mus: generic_tetrahedron(fam, mus, couplings),
            random_mu_assignment(4, rng)))[1] < 1e-12


class TestSu2Tetrahedron:
    @pytest.mark.parametrize("alpha", [0.0, 0.37, 2.2, np.pi])
    def test_reduces_to_toffoli_family_at_special_point(self, alpha):
        got = su2_tetrahedron(CTRL, CTRL, FLIP, alpha=alpha)
        assert np.linalg.norm(got - toffoli_family(alpha)) < 1e-14

    def test_zero_angles_give_scalar_matrix(self):
        rng = np.random.default_rng(0)
        alpha = 1.3
        ps = [AxisAngle(p.axis, 0.0) for p in (random_axis_angle(rng) for _ in range(3))]
        got = su2_tetrahedron(*ps, alpha=alpha)
        scalar = (1 + (1 + 1j) ** 2 / 4) + 1j * np.exp(1j * alpha) * (1 - 1j) ** 2 / 4
        assert np.allclose(got, scalar * identity(3), atol=1e-15)

    def test_vertex_equation_random_parameters(self):
        rng = np.random.default_rng(7)
        alpha = float(rng.uniform(0, 2 * np.pi))
        assert reversal_residual(*site_equation(
            index_scheme(3), lambda ps: su2_tetrahedron(*ps, alpha=alpha),
            random_su2_assignment(6, rng)))[1] < 1e-11


class TestToffoliFamily:
    def test_alpha_zero_is_ccnot(self):
        assert np.array_equal(toffoli_family(0.0), CCNOT)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, np.pi, 5.0])
    def test_flip_amplitude_carries_the_phase(self, alpha):
        t = toffoli_family(alpha)
        # <111| T |110>: row index 7, column index 6
        assert t[7, 6] == pytest.approx(np.exp(1j * alpha), abs=1e-15)

    def test_adjoint_negates_alpha(self):
        for alpha in (0.3, 1.7, -2.5):
            lhs = toffoli_family(alpha).conj().T
            assert np.linalg.norm(lhs - toffoli_family(-alpha)) < 1e-15

    def test_unitary_for_sampled_alphas(self):
        alphas = [0.0, np.pi, np.pi * np.sqrt(2), np.pi * np.e]
        alphas += list(np.linspace(-7, 7, 46))
        assert len(alphas) == 50
        for alpha in alphas:
            assert is_unitary(toffoli_family(alpha))


class TestGeneralToffoli:
    def test_special_point_is_ccnot(self):
        got = general_toffoli(CTRL, CTRL, AxisAngle(Z_AXIS, 0.0))
        assert np.linalg.norm(got - CCNOT) < 1e-15

    def test_unitary_on_random_parameters(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            got = general_toffoli(*(random_axis_angle(rng) for _ in range(3)))
            assert is_unitary(got)

    def test_degenerate_control_raises(self):
        with pytest.raises(DegenerateEigenvaluesError):
            general_toffoli(AxisAngle(Z_AXIS, 0.0), CTRL, CTRL)


class TestConstantSolutions:
    def test_ccz_matrix(self):
        expected = identity(3)
        expected[7, 7] = -1
        assert np.allclose(n_simplex_constant(3), expected, atol=0)

    def test_ccz_is_rank_one_deformation(self):
        proj = np.zeros((8, 8), dtype=complex)
        proj[7, 7] = 1
        assert np.allclose(n_simplex_constant(3), identity(3) - 2 * proj, atol=0)

    def test_ccz_hadamard_conjugate_is_ccnot(self):
        w = kron(I2, I2, H)
        assert np.linalg.norm(w @ n_simplex_constant(3) @ w.conj().T - CCNOT) < 1e-15

    def test_ccz_vertex_residual_vanishes(self):
        residual = reversal_residual(*site_equation(
            index_scheme(3), lambda _: n_simplex_constant(3), [None] * 6))[1]
        assert residual < 1e-12

    def test_alpha_zero_matches_ccz(self):
        assert np.array_equal(n_simplex_constant(3, 0.0), CCZ)

    def test_alpha_beta_unitary(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            assert is_unitary(constant_alpha_beta(a, b))

    def test_linear_special_values(self):
        assert np.array_equal(constant_linear(1.0, -2.0), n_simplex_constant(3))

    def test_linear_generic_solves_but_is_not_unitary(self):
        member = constant_linear(1.0, 0.5)
        assert reversal_residual(*site_equation(
            index_scheme(3), lambda _: member, [None] * 6))[1] < 1e-12
        assert not is_unitary(member)


class TestCzYangBaxter:
    def test_matrix(self):
        assert np.allclose(n_simplex_constant(2), np.diag([1.0, 1.0, 1.0, -1.0]), atol=0)
        proj = np.zeros((4, 4), dtype=complex)
        proj[3, 3] = 1
        assert np.allclose(n_simplex_constant(2), identity(2) - 2 * proj, atol=0)

    def test_yang_baxter_equation(self):
        residual = reversal_residual(*site_equation(
            index_scheme(2), lambda _: n_simplex_constant(2), [None] * 3))[1]
        assert residual < 1e-13

    def test_hadamard_conjugate_is_cnot(self):
        w = kron(I2, H)
        assert np.linalg.norm(w @ n_simplex_constant(2) @ w.conj().T - CNOT) < 1e-15


class TestSu24Simplex:
    def test_three_control_reduces_to_four_site_toffoli(self):
        got = su2_4simplex(CTRL, CTRL, CTRL, FLIP, alpha=0.0, variant="three_control")
        assert np.linalg.norm(got - n_toffoli(4)) < 1e-14

    def test_two_control_special_point_form(self):
        got = su2_4simplex(CTRL, CTRL, CTRL, FLIP, alpha=0.0, variant="two_control")
        p1 = (I2 - Z) / 2
        expected = identity(4) - kron(p1, p1, p1, I2) + kron(p1, p1, I2, X)
        assert np.linalg.norm(got - expected) < 1e-14
        # far from the four-site Toffoli: the flip stays two-controlled
        assert np.linalg.norm(got - n_toffoli(4)) > 0.5

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            su2_4simplex(CTRL, CTRL, CTRL, FLIP, variant="other")

    @pytest.mark.parametrize("variant", FOUR_SIMPLEX_VARIANTS)
    def test_vertex_equation_one_random_trial(self, variant):
        rng = np.random.default_rng(10)
        assert reversal_residual(*site_equation(
            index_scheme(4), lambda ps: su2_4simplex(*ps, alpha=0.9, variant=variant),
            random_su2_assignment(10, rng)))[1] < 1e-10


class TestNSimplexFamilies:
    def test_constant_specializes_at_three_sites(self):
        for alpha in (0.0, 1.1, np.pi):
            assert np.array_equal(n_simplex_constant(3, alpha), constant_alpha_beta(alpha, alpha))

    @pytest.mark.parametrize("member, formula", [
        (lambda alpha: n_simplex_constant(3),
         lambda alpha: identity(3) - 0.25 * kron(I2 - Z, I2 - Z, I2 - Z)),
        (lambda alpha: n_simplex_constant(3, alpha),
         lambda alpha: identity(3) - 0.25 * kron(I2 - Z, I2 - Z, I2 - np.exp(1j * alpha) * Z)),
        (lambda alpha: n_simplex_constant(2),
         lambda alpha: identity(2) - 0.5 * kron(I2 - Z, I2 - Z)),
    ], ids=["constant_ccz", "constant_alpha", "cz_yangbaxter"])
    def test_diagonal_constants_are_bit_identical_to_their_formulas(self, member, formula):
        # n_simplex_constant at n = 3 and n = 2, against the formula it specializes to, to the bit
        alphas = [0.0, np.pi, *np.random.default_rng(12).uniform(0, 2 * np.pi, 500)]
        for alpha in alphas:
            assert np.array_equal(member(alpha), formula(alpha))

    def test_constant_rejects_small_n(self):
        with pytest.raises(ValueError):
            n_simplex_constant(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_su2_toffoli_special_point_is_reference_gate(self, n):
        params = [CTRL] * (n - 1) + [AxisAngle(X_AXIS, np.pi / 2)]
        assert np.linalg.norm(n_simplex_su2_toffoli(params) - n_toffoli(n)) < 1e-14

    def test_su2_toffoli_four_sites_is_three_control_4simplex(self):
        # control angles pi/2 make (1 - i R)/2 the eigenprojector P-
        rng = np.random.default_rng(19)
        for _ in range(10):
            controls = [AxisAngle(random_axis_angle(rng).axis, np.pi / 2) for _ in range(3)]
            flip = random_axis_angle(rng)
            expected = su2_4simplex(*controls, flip, alpha=0.0, variant="three_control")
            assert np.linalg.norm(n_simplex_su2_toffoli(controls + [flip]) - expected) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_su2_toffoli_unitary_at_random_parameters(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(10):
            params = [random_axis_angle(rng) for _ in range(n)]
            assert is_unitary(n_simplex_su2_toffoli(params))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_su2_toffoli_vertex_equation_at_generic_assignments(self, n):
        rng = np.random.default_rng(30 + n)
        scheme = index_scheme(n)
        for _ in range(3):
            assignment = random_su2_assignment(n * (n + 1) // 2, rng)
            equation = site_equation(scheme, n_simplex_su2_toffoli, assignment)
            assert reversal_residual(*equation)[1] < 1e-10

    def test_su2_toffoli_needs_two_sites(self):
        with pytest.raises(ValueError):
            n_simplex_su2_toffoli([CTRL])

    def test_su2_toffoli_degenerate_control_raises(self):
        with pytest.raises(DegenerateEigenvaluesError):
            n_simplex_su2_toffoli([AxisAngle(Z_AXIS, 0.0), CTRL, CTRL])


class TestTwistedPermutation:
    def test_zero_angles_give_plain_swap(self):
        p = AxisAngle(Z_AXIS, 0.0)
        assert np.array_equal(twisted_permutation(p, p), SWAP)

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            tw = twisted_permutation(random_axis_angle(rng), random_axis_angle(rng))
            assert np.linalg.norm(tw @ tw - identity(2)) < 1e-13

    def test_exchanges_conjugated_site_operators(self):
        rng = np.random.default_rng(12)
        for core in (X, H, random_unitary(1, rng)):
            p1, p2 = random_axis_angle(rng), random_axis_angle(rng)
            tw = twisted_permutation(p1, p2)
            m1 = embed(conjugated_site_operator(p1, core), (1,), 2)
            m2 = embed(conjugated_site_operator(p2, core), (2,), 2)
            assert np.linalg.norm(tw @ m1 @ tw - m2) < 1e-13


class TestConjugatedSiteOperator:
    def test_identity_rotation(self):
        assert np.array_equal(conjugated_site_operator(AxisAngle(Z_AXIS, 0.0), Z), Z)

    def test_z_quarter_turn_negates_x(self):
        got = conjugated_site_operator(CTRL, X)
        assert np.linalg.norm(got + X) < 1e-15

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            conjugated_site_operator(CTRL, SWAP)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            got = conjugated_site_operator(random_axis_angle(rng), H)
            # similar matrices share the characteristic polynomial
            assert abs(np.trace(got) - np.trace(H)) < 1e-13
            assert abs(np.linalg.det(got) - np.linalg.det(H)) < 1e-13
            assert is_unitary(got)

    def test_flip_is_hermitian_involution(self):
        # R X R+, the flip slot of general_toffoli, for every axis and angle
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = conjugated_site_operator(random_axis_angle(rng), X)
            assert np.linalg.norm(m @ m - I2) < 1e-14
            assert np.linalg.norm(m - m.conj().T) < 1e-14


def test_site_relabeling_by_plain_permutations():
    # conjugating by SWAP_24 SWAP_35 moves a (1,2,3) placement to (1,4,5)
    # while keeping the original parameters attached to the operator
    rng = np.random.default_rng(14)
    fam = seeded_random(14)
    mus = random_mu_assignment(3, rng)
    t = generic_tetrahedron(fam, mus, CouplingConstants(*random_mu_assignment(7, rng)))
    p24 = embed(SWAP, (2, 4), 6)
    p35 = embed(SWAP, (3, 5), 6)
    lhs = p24 @ p35 @ embed(t, (1, 2, 3), 6) @ p35 @ p24
    assert np.array_equal(lhs, embed(t, (1, 4, 5), 6))


def test_site_local_constructors_pass_vertex_and_edge_sweep():
    # constructors whose per-site dependence runs through one fixed 2x2
    # operator; the equations hold for them at every parameter draw
    fam = pauli_exp()
    for seed in range(5):
        trial = np.random.default_rng(seed)
        couplings = CouplingConstants(*random_mu_assignment(7, trial))
        generic = lambda mus: generic_tetrahedron(fam, mus, couplings)
        assert reversal_residual(*site_equation(
            index_scheme(3), generic, random_mu_assignment(6, trial)))[1] < 1e-11
        assert reversal_residual(*site_equation(
            edge_scheme(3), generic, random_mu_assignment(4, trial)))[1] < 1e-11
        alpha = float(trial.uniform(0, 2 * np.pi))
        su2 = lambda ps: su2_tetrahedron(*ps, alpha=alpha)
        assert reversal_residual(*site_equation(
            index_scheme(3), su2, random_su2_assignment(6, trial)))[1] < 1e-11
        assert reversal_residual(*site_equation(
            edge_scheme(3), su2, random_su2_assignment(4, trial)))[1] < 1e-11


class TestProjectorToffoliRoleMix:
    """general_toffoli acts on a site through an eigenprojector (control
    slot) or a conjugated X (flip slot); the two commute only for x-like
    axes, so the family is not site-local and the vertex equation fails at
    generic parameters -- exactly the CCNOT mechanism."""

    def test_role_operators_do_not_commute_generically(self):
        from simplexgates.su2 import projector_pm

        rng = np.random.default_rng(16)
        p = random_axis_angle(rng)
        flip = conjugated_site_operator(p, X)
        comm = projector_pm(p, -1) @ flip - flip @ projector_pm(p, -1)
        assert np.linalg.norm(comm) > 0.01
        px = AxisAngle(X_AXIS, 0.7)
        flip_x = conjugated_site_operator(px, X)
        comm_x = projector_pm(px, -1) @ flip_x - flip_x @ projector_pm(px, -1)
        assert np.linalg.norm(comm_x) < 1e-14

    def test_generic_parameters_violate_the_vertex_equation(self):
        rng = np.random.default_rng(17)
        provider = lambda params: general_toffoli(*params)
        residual = reversal_residual(*site_equation(
            index_scheme(3), provider, random_su2_assignment(6, rng)))[1]
        assert residual > 0.01

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_parameters_satisfy_the_edge_form(self, seed):
        # site 3 is the target of (1, 2, 3) and a control of (1, 3, 4) and
        # (2, 3, 4), yet the edge form holds where the vertex form fails
        assert role_conflicted_sites(edge_scheme(3)) == [3]
        provider = lambda params: general_toffoli(*params)
        equation = site_equation(edge_scheme(3), provider,
                                 random_su2_assignment(4, np.random.default_rng(seed)))
        assert reversal_residual(*equation)[1] < 1e-13

    def test_role_compatible_assignment_satisfies_the_equation(self):
        rng = np.random.default_rng(18)
        provider = lambda params: general_toffoli(*params)
        assignment = random_su2_assignment(6, rng)
        scheme = index_scheme(3)
        assert role_conflicted_sites(scheme) == [3, 5]
        for s in role_conflicted_sites(scheme):
            assignment[s - 1] = AxisAngle(X_AXIS, float(rng.uniform(0.1, np.pi - 0.1)))
        equation = site_equation(scheme, provider, assignment)
        assert reversal_residual(*equation)[1] < 1e-11
