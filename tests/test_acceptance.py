"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them on success)."""

import time

import numpy as np

from simplexgates.gates import CCNOT, CNOT, local_conjugate, n_toffoli
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
    seeded_random,
    su2_4simplex,
    su2_tetrahedron,
    toffoli_family,
    twisted_permutation,
)
from simplexgates.su2 import H, I2, X, AxisAngle, random_axis_angle
from simplexgates.tensor import apply, embed, random_operator, random_state, random_unitary
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


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_toffoli_reduction():
    d1 = np.linalg.norm(toffoli_family(0.0) - CCNOT)
    d2 = np.linalg.norm(general_toffoli(CTRL, CTRL, AxisAngle(Z_AXIS, 0.0)) - CCNOT)
    worst = max(d1, d2)
    _report("criterion 1 (Toffoli reduction)", worst < 1e-15,
            f"max Frobenius distance to CCNOT {worst:.3e} (< 1e-15)")


def test_criterion_2_su2_tetrahedron_vertex():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(200 + trial)
        alpha = float(rng.uniform(0, 2 * np.pi))
        worst = max(worst, reversal_residual(*site_equation(
            index_scheme(3), lambda ps: su2_tetrahedron(*ps, alpha=alpha),
            random_su2_assignment(6, rng)))[1])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-11 and elapsed < 5.0
    _report("criterion 2 (SU(2) vertex equation, 100 trials)", ok,
            f"max normalized residual {worst:.3e} (< 1e-11) in {elapsed:.2f}s (< 5s)")


def test_criterion_3_generic_trivial_solution():
    t0 = time.perf_counter()
    worst_vertex = worst_edge = 0.0
    for trial in range(100):
        rng = np.random.default_rng(300 + trial)
        family = seeded_random(seed=300 + trial)
        couplings = CouplingConstants(*random_mu_assignment(7, rng))
        provider = lambda mus: generic_tetrahedron(family, mus, couplings)
        worst_vertex = max(worst_vertex,
                           reversal_residual(*site_equation(
                               index_scheme(3), provider,
                               random_mu_assignment(6, rng)))[1])
        worst_edge = max(worst_edge,
                         reversal_residual(*site_equation(
                             edge_scheme(3), provider, random_mu_assignment(4, rng)))[1])
    elapsed = time.perf_counter() - t0
    worst = max(worst_vertex, worst_edge)
    ok = worst < 1e-11 and elapsed < 5.0
    _report("criterion 3 (generic family vertex+edge, 100 trials)", ok,
            f"max normalized residual {worst:.3e} (< 1e-11) in {elapsed:.2f}s (< 5s)")


def test_criterion_4_constant_solutions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    worst = 0.0
    members = [n_simplex_constant(3), n_simplex_constant(3, 1.3), constant_alpha_beta(0.7, -2.1)]
    for member in members:
        worst = max(worst, reversal_residual(*site_equation(
            index_scheme(3), lambda _: member, [None] * 6))[1])
        assert is_unitary(member)
    detected_nonunitary = 0
    for _ in range(20):
        a, b = (complex(x, y) for x, y in rng.standard_normal((2, 2)))
        member = constant_linear(a, b)
        worst = max(worst, reversal_residual(*site_equation(
            index_scheme(3), lambda _: member, [None] * 6))[1])
        if not is_unitary(member):
            detected_nonunitary += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and detected_nonunitary == 20 and elapsed < 2.0
    _report("criterion 4 (constant solutions)", ok,
            f"max residual {worst:.3e} (< 1e-12), non-unitary detected "
            f"{detected_nonunitary}/20, {elapsed:.2f}s (< 2s)")


def test_criterion_5_hadamard_bridges():
    singles3 = [I2, I2, H]
    dists = [np.linalg.norm(local_conjugate(n_simplex_constant(3), singles3) - CCNOT)]
    for alpha in np.linspace(0, 2 * np.pi, 20):
        dists.append(np.linalg.norm(
            local_conjugate(n_simplex_constant(3, alpha), singles3) - toffoli_family(alpha)))
    dists.append(np.linalg.norm(local_conjugate(n_simplex_constant(2), [I2, H]) - CNOT))
    worst = max(dists)
    _report("criterion 5 (Hadamard bridges)", worst < 1e-14,
            f"max distance {worst:.3e} (< 1e-14)")


def test_criterion_6_four_simplex():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(600 + trial)
        assignment = random_su2_assignment(10, rng)
        alpha = float(rng.uniform(0, 2 * np.pi))
        for variant in FOUR_SIMPLEX_VARIANTS:
            worst = max(worst, reversal_residual(*site_equation(
                index_scheme(4),
                lambda ps: su2_4simplex(*ps, alpha=alpha, variant=variant), assignment))[1])
    elapsed = time.perf_counter() - t0

    reducing = su2_4simplex(CTRL, CTRL, CTRL, FLIP, alpha=0.0, variant="three_control")
    literal = su2_4simplex(CTRL, CTRL, CTRL, FLIP, alpha=0.0, variant="two_control")
    d_reducing = np.linalg.norm(reducing - n_toffoli(4))
    d_literal = np.linalg.norm(literal - n_toffoli(4))
    ok = worst < 1e-10 and elapsed < 60.0 and d_reducing < 1e-14 and d_literal > 0.5
    _report("criterion 6 (4-simplex, both variants, 20 trials)", ok,
            f"max normalized residual {worst:.3e} (< 1e-10) in {elapsed:.1f}s (< 60s); "
            f"three-control to NTOFFOLI(4) {d_reducing:.2e} (< 1e-14), "
            f"two-control {d_literal:.3f} (> 0.5)")


def test_criterion_7_five_simplex_matrix_free():
    # The x-axis assignment on the sites shared between a flip slot and a
    # control slot is a diagnostic only: the generic residual is the one
    # held to the tolerance.
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    scheme = index_scheme(5)
    register = max(map(max, scheme))
    assert register == 15
    r_constant = reversal_residual(
        *site_equation(scheme, lambda _: n_simplex_constant(5, alpha=1.1), [None] * register),
        mode="matrixfree", vectors=20, seed=700)[1]
    assignment = random_su2_assignment(register, rng)
    r_su2 = reversal_residual(
        *site_equation(scheme, n_simplex_su2_toffoli, assignment),
        mode="matrixfree", vectors=20, seed=701)[1]
    elapsed = time.perf_counter() - t0

    compatible = list(assignment)
    for s in role_conflicted_sites(scheme):
        compatible[s - 1] = AxisAngle(X_AXIS, float(rng.uniform(0.1, np.pi - 0.1)))
    r_su2_compatible = reversal_residual(
        *site_equation(scheme, n_simplex_su2_toffoli, compatible),
        mode="matrixfree", vectors=20, seed=701)[1]

    worst = max(r_constant, r_su2)
    ok = worst < 1e-10 and elapsed < 60.0
    _report("criterion 7 (5-simplex on 15 sites, matrix-free)", ok,
            f"constant residual {r_constant:.3e} and rotated-control Toffoli residual "
            f"{r_su2:.3e} at generic parameters (< 1e-10); {r_su2_compatible:.3e} with "
            f"x-axis rotations on the shared-role sites; {elapsed:.1f}s (< 60s)")


def test_criterion_8_twisted_permutations():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(800 + trial)
        p1, p2, p3 = (random_axis_angle(rng) for _ in range(3))
        tw12 = embed(twisted_permutation(p1, p2), (1, 2), 3)
        tw23 = embed(twisted_permutation(p2, p3), (2, 3), 3)
        worst = max(worst, np.linalg.norm(tw12 @ tw23 @ tw12 - tw23 @ tw12 @ tw23))
        flat = twisted_permutation(p1, p2)
        worst = max(worst, np.linalg.norm(flat @ flat - np.eye(4)))
        q12 = embed(twisted_permutation(p1, p2), (1, 2), 4)
        q34 = embed(twisted_permutation(p3, p1), (3, 4), 4)
        worst = max(worst, np.linalg.norm(q12 @ q34 - q34 @ q12))
        for core in (X, H, random_unitary(1, rng)):
            m1 = embed(conjugated_site_operator(p1, core), (1,), 2)
            m2 = embed(conjugated_site_operator(p2, core), (2,), 2)
            worst = max(worst, np.linalg.norm(flat @ m1 @ flat - m2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-13 and elapsed < 5.0
    _report("criterion 8 (twisted permutations, 100 draws)", ok,
            f"max residual {worst:.3e} (< 1e-13) in {elapsed:.2f}s (< 5s)")


def test_criterion_9_ccnot_negative_control():
    residual = reversal_residual(*site_equation(
        index_scheme(3), lambda _: CCNOT, [None] * 6))[1]

    scheme = index_scheme(3)
    v = np.zeros(64, dtype=complex)
    v[0b111111] = 1.0
    lhs = v
    for sites in reversed(scheme):
        lhs = apply(CCNOT, sites, lhs)
    rhs = v
    for sites in scheme:
        rhs = apply(CCNOT, sites, rhs)
    lhs_label = format(int(np.argmax(np.abs(lhs))), "06b")
    rhs_label = format(int(np.argmax(np.abs(rhs))), "06b")
    ok = residual > 0.5 and lhs_label == "110101" and rhs_label == "110100"
    _report("criterion 9 (CCNOT negative control)", ok,
            f"vertex residual {residual:.3f} (> 0.5); |111111> maps to "
            f"|{lhs_label}> on the left vs |{rhs_label}> on the right")


def test_criterion_10_oracle_equivalence():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        op = random_operator(3, rng)
        sites = tuple(int(s) + 1 for s in rng.permutation(8)[:3])
        v = random_state(8, rng)
        worst = max(worst, np.linalg.norm(apply(op, sites, v) - embed(op, sites, 8) @ v))

    # column reconstruction of L - R for one tetrahedron instance
    rng = np.random.default_rng(1099)
    assignment = random_su2_assignment(6, rng)
    scheme = index_scheme(3)
    factors = [(su2_tetrahedron(*(assignment[s - 1] for s in t), alpha=0.6), t)
               for t in scheme]
    mats = [embed(op, sites, 6) for op, sites in factors]
    dense_raw = np.linalg.norm(
        mats[0] @ mats[1] @ mats[2] @ mats[3] - mats[3] @ mats[2] @ mats[1] @ mats[0])
    columns = np.zeros((64, 64), dtype=complex)
    for col in range(64):
        basis = np.zeros(64, dtype=complex)
        basis[col] = 1.0
        lv = basis
        for op, sites in reversed(factors):
            lv = apply(op, sites, lv)
        rv = basis
        for op, sites in factors:
            rv = apply(op, sites, rv)
        columns[:, col] = lv - rv
    recon_gap = abs(np.linalg.norm(columns) - dense_raw)
    ok = worst < 1e-13 and recon_gap < 1e-12
    _report("criterion 10 (oracle equivalence)", ok,
            f"max apply-vs-embed residual {worst:.3e} (< 1e-13); column "
            f"reconstruction gap {recon_gap:.3e} (< 1e-12)")
