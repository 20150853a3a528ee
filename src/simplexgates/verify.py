"""Simplex-equation instances, residual computation, and the named-check
verification campaign, the one place that picks the residual mode.

Residual conventions: ``reversal_residual`` evaluates one equation.  It
places and checks each factor once (the reversed side reverses the placed
list), then both modes run the two sides through one product kernel in
three reused buffers per thread; a non-diagonal factor of 5 or 6 sites
that is the identity plus a rank r < d/4 term, to within d * eps of that
term's norm, is applied as U (Vh g) + g (``tensor._factored``), which
changes a residual only by rounding.  Dense mode, which the permutation
relations share, builds both sides one column block of 2**_BLOCK_BITS
entries at most at a time (never a whole 2**N x 2**N side), on two threads
given two CPUs, and reports ||L - R||_F plus that value divided by ||L||_F;
tolerances apply to the normalized value.  Matrix-free mode applies them
to seeded random unit vectors and reports the worst ||(L - R) v||_2,
normalized per vector by ||L v||_2; a campaign draws each vector once per
trial and register size for all its matrix-free equations of that size.
Either mode reports the raw value where the norm it would divide by is zero.
Campaign trial i is one ``_trial`` call that draws everything from
seed + i, so reports are reproducible bit for bit (wall time aside) and
trials could run in any order or in parallel.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import operators as op_families
from .gates import CCNOT, CNOT, local_conjugate
from .su2 import I2, H, X, AxisAngle, random_axis_angle
from .tensor import (_copied, _placed, _product_view, _unitarity, _validated_sites, apply, embed,
                     frobenius_distance, random_operator, random_state, random_unitary)

__all__ = [
    "DENSE_SITE_LIMIT",
    "DEFAULT_VECTORS",
    "MODES",
    "CampaignArgumentError",
    "SimplexIndexScheme",
    "index_scheme",
    "Equation",
    "reversal_residual",
    "slot_equation",
    "simplex_equation",
    "EDGE_TUPLES_3",
    "random_su2_assignment",
    "random_mu_assignment",
    "CheckReport",
    "VerificationReport",
    "CheckSpec",
    "CHECKS",
    "campaign",
]

# dense mode is refused above 12 sites, a bound on time (4**12 entries per
# side); each of at most two threads holds three 512 KiB column blocks, and
# 2**14 to 2**18 entries per block ran a 10-site su2-4simplex trial within
# noise (2**13 and 2**20 slower).  The matrix-free limit, 24 sites, bounds
# memory: 4 state vectors, 129 MiB traced at 21 sites, about 1 GiB at 24
DENSE_SITE_LIMIT = 12
_BLOCK_BITS = 15
DEFAULT_VECTORS = 20
# residual modes: each side's matrix in column blocks, or random vectors
MODES = ("dense", "matrixfree")

EDGE_TUPLES_3 = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


class CampaignArgumentError(ValueError):
    """A refused request, its message whole: a campaign asked for an
    unregistered check name, fewer than one trial or vector, a negative
    seed, a simplex order below 2, or an unknown residual mode; a campaign
    or residual asked for a register of no sites, one beyond the ceiling
    (DENSE_SITE_LIMIT sites dense, twice that matrix-free), an unknown
    mode, or an equation of fewer than two factors; and the command line
    found a SIMPLEX_SEED that is not an integer."""


@dataclass(frozen=True)
class SimplexIndexScheme:
    """Sites and operator placements of one n-simplex equation instance.

    Sites are the 2-subsets {a, b} of {1, ..., n+1} in lexicographic order,
    numbered from 1; operator a acts on every site whose pair contains a,
    in lexicographic order.  Each of the n+1 operators then touches n
    sites, every site is shared by exactly two operators, and any two
    operators share exactly one site.
    """

    register_size: int
    tuples: tuple[tuple[int, ...], ...]


def index_scheme(n: int) -> SimplexIndexScheme:
    """Pair-labeled scheme of the n-simplex equation on n(n+1)/2 sites."""
    if n < 2:
        raise ValueError(f"simplex order must be at least 2, got {n}")
    pairs = list(itertools.combinations(range(1, n + 2), 2))
    site_of = {pair: i + 1 for i, pair in enumerate(pairs)}
    tuples = tuple(
        tuple(site_of[p] for p in pairs if a in p) for a in range(1, n + 2)
    )
    return SimplexIndexScheme(register_size=len(pairs), tuples=tuples)


def _check_mode(mode: str) -> None:
    """Refuse a residual mode that is not in MODES."""
    if mode not in MODES:
        raise CampaignArgumentError(
            f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")


def _check_block(register_size: int, mode: str) -> None:
    """Refuse an unknown mode, a register of no sites, and a register of
    more than DENSE_SITE_LIMIT sites in dense mode or twice that in
    matrix-free mode."""
    _check_mode(mode)
    if register_size < 1:
        raise CampaignArgumentError(f"register must have at least one site, got {register_size}")
    most = DENSE_SITE_LIMIT if mode == "dense" else 2 * DENSE_SITE_LIMIT
    if register_size > most:
        hint = "; use matrixfree" if mode == "dense" else ""
        raise CampaignArgumentError(
            f"{mode} mode supports at most {most} sites, got {register_size}{hint}"
        )


def _side_norms(lhs, rhs, n, work, block=None, pins=None) -> tuple[float, float]:
    # (||L - R||, ||L||) on one vector or one ``_dense_distance`` column
    # block: the kernel runs in two buffers of ``work``, L is copied into the
    # third in site order, and L - R is written over the gather buffer from
    # R's contraction order; both norms sum in site order, like ``product``
    acc, gat, keep = work
    left = _copied(_product_view(lhs, n, (acc, gat), block, pins), keep)
    right = _product_view(rhs, n, (acc, gat), block, pins)
    diff = np.subtract(left, right, out=gat[:left.size].reshape(left.shape))
    return float(np.linalg.norm(diff)), float(np.linalg.norm(left))


def _dense_distance(lhs, rhs, n) -> tuple[float, float]:
    """(||L - R||_F, that over ||L||_F) for the products of two lists placed
    on an n-site register, built one block at a time with the column bits of
    sites 1..m, m = max(0, 2n - _BLOCK_BITS), pinned to each pattern; each
    norm is the root of its summed squares, whole-matrix bits when m = 0.
    Given two CPUs and m > 0, a pool thread builds the second half of the
    blocks in buffers of its own and its exception is raised here; the squares
    sum in pattern order either way, so the bits do not depend on the CPU count."""
    m = max(0, 2 * n - _BLOCK_BITS)
    patterns = [dict(enumerate(bits, 1)) for bits in itertools.product((0, 1), repeat=m)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cut = len(patterns) // 2 if m and (cpus or 1) > 1 else 0

    def run(half):
        work = tuple(np.empty(4**n >> m, dtype=complex) for _ in range(3))
        return [_side_norms(lhs, rhs, n, work, pins=pins) for pins in half]

    if cut:
        # leaving the pool joins its thread, also when the caller's own half raises
        with ThreadPoolExecutor(1) as pool:
            second = pool.submit(run, patterns[cut:])
            blocks = run(patterns[:cut]) + second.result()
    else:
        blocks = run(patterns)
    raw, scale = (math.sqrt(sum(x * x for x in norms)) for norms in zip(*blocks))
    return raw, raw / scale if scale > 0 else raw


class Equation(NamedTuple):
    """One simplex-equation instance: the product of the placed factors,
    composed left to right, equals the same product reversed."""

    factors: Sequence[tuple[np.ndarray, Sequence[int]]]
    register_size: int


def _sides(factors, register_size, mode) -> tuple[list, list]:
    # the placed forward and reversed sides, after the checks every residual
    # makes first: the block, and two factors or more (fewer are their own reversal)
    _check_block(register_size, mode)
    if len(factors) < 2:
        raise CampaignArgumentError(f"an equation needs at least two factors, got {len(factors)}")
    lhs = _placed(factors, register_size)
    return lhs, lhs[::-1]


def _shared_vector_residuals(sides, n, vectors, seed) -> tuple[list, list[float]]:
    """Each placed (L, R) pair's (raw, normalized) residual on an n-site
    register, against the same ``vectors`` random unit vectors drawn once
    from a child of ``seed``'s SeedSequence, a stream apart from the
    ``default_rng(seed)`` a check draws its parameters from: the worst
    ||(L - R) v|| over ||L v|| per pair, as ``reversal_residual`` gives it
    for that pair alone.  Also each pair's seconds, with the draws charged
    to the first pair."""
    work = tuple(np.empty(2**n, dtype=complex) for _ in range(3))
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    norms, seconds = [[] for _ in sides], [[] for _ in sides]
    for _ in range(vectors):
        start = time.perf_counter()
        v = random_state(n, rng)
        for (lhs, rhs), pair_norms, pair_seconds in zip(sides, norms, seconds):
            pair_norms.append(_side_norms(lhs, rhs, n, work, v))
            now = time.perf_counter()
            pair_seconds.append(now - start)
            start = now
        del v  # before the next draw, so that two vectors are never alive at once
    # np.max, unlike max(), lets a NaN through to the verdict
    worst = [np.max([(raw, raw / scale if scale > 0 else raw) for raw, scale in pairs], axis=0)
             for pairs in norms]
    return [(float(raw), float(norm)) for raw, norm in worst], [sum(s) for s in seconds]


def reversal_residual(
    factors: Sequence[tuple[np.ndarray, Sequence[int]]],
    register_size: int,
    mode: str = "dense",
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
) -> tuple[float, float]:
    """(raw, normalized) residual between the forward product L of the
    factors, composed left to right, and the same product reversed, R.

    The block is checked and fewer than two factors, which are their own
    reversal, are refused; then each factor is placed and checked once,
    and R reuses the placed list.  Dense mode is ``_dense_distance``.
    Matrix-free mode is ``_shared_vector_residuals`` of this one equation:
    both products on each of ``vectors`` random unit vectors drawn from a
    child stream of ``seed``, keeping the worst.
    """
    lhs, rhs = _sides(factors, register_size, mode)
    if mode == "dense":
        return _dense_distance(lhs, rhs, register_size)
    return _shared_vector_residuals([(lhs, rhs)], register_size, vectors, seed)[0][0]


def slot_equation(tuples: Sequence[tuple[int, ...]], register_size: int,
                  provider: Callable[[tuple], np.ndarray], params: Sequence) -> Equation:
    """The simplex equation with one operator per placement tuple and one
    parameter per (placement, slot): ``params`` lists each tuple's slot
    parameters in tuple order.  ``tuples`` lists each operator's sites
    (``index_scheme(n).tuples`` for the n-simplex vertex form,
    ``EDGE_TUPLES_3`` for the tetrahedron edge form); ``provider`` maps one
    placement's parameters to its dense matrix and is called for every tuple
    before this returns, so it may close over a loop variable.  A tuple site
    that ``_placed`` would refuse, or a count other than the number of
    slots, raises ValueError before any provider call."""
    tuples = [_validated_sites(tup, len(tup), register_size) for tup in tuples]
    slots = sum(map(len, tuples))
    if len(params) != slots:
        raise ValueError(f"params must cover all {slots} slots, got {len(params)}")
    rest = iter(params)
    factors = [(provider(tuple(itertools.islice(rest, len(tup)))), tup) for tup in tuples]
    return Equation(factors, register_size)


def simplex_equation(
    tuples: Sequence[tuple[int, ...]],
    register_size: int,
    provider: Callable[[tuple], np.ndarray],
    assignment: Sequence,
) -> Equation:
    """``slot_equation`` with each slot reading its site's parameter from
    ``assignment``, one per register site (anything the provider understands;
    a constant provider ignores them).  An assignment that does not cover all
    ``register_size`` sites raises ValueError before any provider call."""
    if len(assignment) != register_size:
        raise ValueError(
            f"assignment must cover all {register_size} sites, got {len(assignment)}"
        )
    # a site outside the register reads None, and slot_equation refuses its tuple
    at = dict(enumerate(assignment, 1))
    params = [at.get(s) for tup in tuples for s in tup]
    return slot_equation(tuples, register_size, provider, params)


# ---------------------------------------------------------------------------
# assignment samplers


def random_su2_assignment(register_size: int, rng: np.random.Generator) -> list[AxisAngle]:
    return [random_axis_angle(rng) for _ in range(register_size)]


def random_mu_assignment(register_size: int, rng: np.random.Generator) -> list[complex]:
    vals = rng.standard_normal(register_size) + 1j * rng.standard_normal(register_size)
    return [complex(v) for v in vals]


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    """Outcome of one named check across its trials."""

    check: str
    n: int | None
    mode: str
    trials: int
    seed: int
    residuals: list[float]
    raw_residuals: list[float]
    max_residual: float
    tolerance: dict
    verdict: str
    ms: float
    predicate: str = "residual_within"


@dataclass
class VerificationReport:
    """Aggregate of a campaign: one CheckReport per named check, with the
    overall verdict being their conjunction."""

    checks: list[CheckReport]
    seed: int
    trials: int
    verdict: str
    ms: float


# ---------------------------------------------------------------------------
# permutation relations


def _relation_distance(lhs, rhs, n) -> tuple[float, float]:
    """(||L - R||_F, that over ||L||_F) for the products L of ``lhs`` and R
    of ``rhs`` on an n-site register, an operator identity L = R."""
    return _dense_distance(_placed(lhs, n), _placed(rhs, n), n)


def _perm_relation_residuals(p_1, p_2, p_3, rng) -> dict[str, tuple[float, float]]:
    """Braid, involution, and distant-commutation relations for placed
    twisted permutations, plus the shared-core conjugation exchange for
    cores X, H, and a random unitary drawn from ``rng``.

    The braid runs on a 3-site register with the (1,2) and (2,3)
    placements; distant commutation uses a 4-site register, where any
    parameters work because the supports are disjoint.
    """
    tw = op_families.twisted_permutation
    p12, p23 = (tw(p_1, p_2), (1, 2)), (tw(p_2, p_3), (2, 3))
    # disjoint supports commute regardless of parameters; p_1 reused for site 4
    p34 = (tw(p_3, p_1), (3, 4))
    out = {
        "braid": _relation_distance([p12, p23, p12], [p23, p12, p23], 3),
        "involution": _relation_distance([p12, p12], [], 2),
        "distant_commutation": _relation_distance([p12, p34], [p34, p12], 4),
    }
    for label, core in (("conjugation_x", X), ("conjugation_h", H),
                        ("conjugation_random", random_unitary(1, rng))):
        m1 = (op_families.conjugated_site_operator(p_1, core), (1,))
        m2 = (op_families.conjugated_site_operator(p_2, core), (2,))
        out[label] = _relation_distance([p12, m1, p12], [m2], 2)
    return out


# ---------------------------------------------------------------------------
# named checks


@dataclass(frozen=True)
class CheckSpec:
    """A registered check: one function ``fn(trial_seed, *, n)`` run per
    trial.  It returns the trial's non-empty list of members, each an
    Equation, which the campaign evaluates in its residual mode, or a
    (raw, normalized) residual the check computed itself, such as a gate
    identity's distance.  An inverted check passes when every residual
    exceeds ``tolerance`` instead."""

    name: str
    description: str
    fn: Callable[..., list[Equation | tuple[float, float]]]
    tolerance: float
    default_n: int | None = None
    supports_n: bool = False
    invert: bool = False


CHECKS: dict[str, CheckSpec] = {}


def _register(name: str, description: str, tolerance: float, **kwargs):
    def deco(fn):
        CHECKS[name] = CheckSpec(name=name, description=description, fn=fn,
                                 tolerance=tolerance, **kwargs)
        return fn

    return deco


def _drawn(tuples, register_size, per_slot, sample, rng) -> tuple[list, Callable[..., Equation]]:
    if per_slot:
        return sample(sum(map(len, tuples)), rng), slot_equation
    return sample(register_size, rng), simplex_equation


@_register("su2-tetra-vertex",
           "rotation tetrahedron family against the 6-site vertex equation",
           1e-11, default_n=3)
def _check_su2_tetra_vertex(trial_seed, *, n, per_slot=False):
    rng = np.random.default_rng(trial_seed)
    tuples = index_scheme(3).tuples
    params, build = _drawn(tuples, 6, per_slot, random_su2_assignment, rng)
    alpha = float(rng.uniform(0, 2 * np.pi))
    return [build(tuples, 6, lambda ps: op_families.su2_tetrahedron(*ps, alpha=alpha), params)]


def _generic_equations(trial_seed, tuples, register_size, per_slot) -> list[Equation]:
    # the coupled generic family on the trial's seeded_random site operators
    rng = np.random.default_rng(trial_seed)
    family = op_families.seeded_random(seed=trial_seed)
    couplings = op_families.CouplingConstants.random(rng)
    mus, build = _drawn(tuples, register_size, per_slot, random_mu_assignment, rng)
    return [build(tuples, register_size,
                  lambda ps: op_families.generic_tetrahedron(family, ps, couplings), mus)]


@_register("generic-vertex",
           "coupled generic family (seeded random site operators) against the 6-site vertex equation",
           1e-11, default_n=3)
def _check_generic_vertex(trial_seed, *, n, per_slot=False):
    return _generic_equations(trial_seed, index_scheme(3).tuples, 6, per_slot)


@_register("edge-form-3",
           "coupled generic family against the 4-site edge-form equation",
           1e-11, default_n=3)
def _check_edge_form(trial_seed, *, n, per_slot=False):
    return _generic_equations(trial_seed, EDGE_TUPLES_3, 4, per_slot)


@_register("constant-vertex",
           "constant solutions (sign flip, phased, two-phase, linear) against the vertex equation",
           1e-12, default_n=3)
def _check_constant_vertex(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    alpha, beta = rng.uniform(0, 2 * np.pi, 2)
    a, b = (complex(x, y) for x, y in rng.standard_normal((2, 2)))
    members = [
        op_families.n_simplex_constant(3),
        op_families.n_simplex_constant(3, alpha),
        op_families.constant_alpha_beta(alpha, beta),
        op_families.constant_linear(a, b),
    ]
    return [simplex_equation(index_scheme(3).tuples, 6, lambda _: m, [None] * 6)
            for m in members]


@_register("hadamard-bridge",
           "Hadamard conjugations: sign-flip solutions onto CCNOT, the phased family onto the Toffoli family, CZ onto CNOT",
           1e-14)
def _check_hadamard_bridge(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    dists = [
        frobenius_distance(local_conjugate(op_families.n_simplex_constant(3), [I2, I2, H]), CCNOT),
        frobenius_distance(local_conjugate(op_families.n_simplex_constant(3, alpha), [I2, I2, H]),
                           op_families.toffoli_family(alpha)),
        frobenius_distance(local_conjugate(op_families.n_simplex_constant(2), [I2, H]), CNOT),
    ]
    return [(d, d) for d in dists]


@_register("toffoli-reduction",
           "gate reductions: Toffoli family at alpha 0 vs CCNOT, projector Toffoli at its special point, rotation tetrahedron onto the Toffoli family",
           1e-14)
def _check_toffoli_reduction(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    z_axis, x_axis = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    ctrl = AxisAngle(z_axis, np.pi / 2)
    dists = [
        frobenius_distance(op_families.toffoli_family(0.0), CCNOT),
        frobenius_distance(op_families.general_toffoli(ctrl, ctrl, AxisAngle(z_axis, 0.0)), CCNOT),
        frobenius_distance(op_families.su2_tetrahedron(ctrl, ctrl, AxisAngle(x_axis, np.pi / 2),
                                                       alpha=alpha),
                           op_families.toffoli_family(alpha)),
    ]
    return [(d, d) for d in dists]


@_register("unitary-families",
           "unitarity of the Toffoli family, the two-phase constant family, and the projector Toffoli",
           1e-13)
def _check_unitary_families(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    alpha, beta = rng.uniform(0, 2 * np.pi, 2)
    members = [
        op_families.toffoli_family(alpha),
        op_families.constant_alpha_beta(alpha, beta),
        op_families.general_toffoli(random_axis_angle(rng), random_axis_angle(rng),
                                    random_axis_angle(rng)),
    ]
    devs = [_unitarity(m)[0] for m in members]
    return [(d, d / np.sqrt(8.0)) for d in devs]


@_register("perm-relations",
           "twisted permutation relations: braid, involution, distant commutation, conjugation exchange",
           1e-13)
def _check_perm_relations(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    named = _perm_relation_residuals(random_axis_angle(rng), random_axis_angle(rng),
                                     random_axis_angle(rng), rng)
    return list(named.values())


@_register("su2-4simplex-vertex",
           "both 4-site rotation family variants against the 10-site vertex equation",
           1e-10, default_n=4)
def _check_su2_4simplex_vertex(trial_seed, *, n, per_slot=False):
    rng = np.random.default_rng(trial_seed)
    tuples = index_scheme(4).tuples
    params, build = _drawn(tuples, 10, per_slot, random_su2_assignment, rng)
    alpha = float(rng.uniform(0, 2 * np.pi))
    return [build(tuples, 10,
                  lambda ps: op_families.su2_4simplex(*ps, alpha=alpha, variant=variant), params)
            for variant in op_families.FOUR_SIMPLEX_VARIANTS]


@_register("nsimplex-constant",
           "diagonal constant n-simplex solution; defaults to n = 5 on 15 sites, matrix-free",
           1e-10, default_n=5, supports_n=True)
def _check_nsimplex_constant(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    member = op_families.n_simplex_constant(n, alpha)
    scheme = index_scheme(n)
    return [simplex_equation(scheme.tuples, scheme.register_size, lambda _: member,
                             [None] * scheme.register_size)]


@_register("nsimplex-su2toffoli",
           "rotated-control n-site Toffoli family (eigenprojector controls, i R flip) "
           "at generic SU(2) assignments; defaults to n = 5 on 15 sites, matrix-free",
           1e-10, default_n=5, supports_n=True)
def _check_nsimplex_su2toffoli(trial_seed, *, n, per_slot=False):
    rng = np.random.default_rng(trial_seed)
    scheme = index_scheme(n)
    params, build = _drawn(scheme.tuples, scheme.register_size, per_slot, random_su2_assignment,
                           rng)
    return [build(scheme.tuples, scheme.register_size, op_families.n_simplex_su2_toffoli, params)]


@_register("ccnot-negative-control",
           "CCNOT does NOT solve the constant vertex equation; passes when the residual exceeds 0.5",
           0.5, default_n=3, invert=True)
def _check_ccnot_negative_control(trial_seed, *, n):
    return [simplex_equation(index_scheme(3).tuples, 6, lambda _: CCNOT, [None] * 6)]


@_register("apply-vs-embed",
           "matrix-free application agrees with dense embedding on random 3-site operators and 8-site states",
           1e-13)
def _check_apply_vs_embed(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    op = random_operator(3, rng)
    sites = tuple(int(s) + 1 for s in rng.permutation(8)[:3])
    v = random_state(8, rng)
    raw = float(np.linalg.norm(apply(op, sites, v) - embed(op, sites, 8) @ v))
    return [(raw, raw)]


# inverted twins: each parametrized check with one parameter per (placement,
# slot), which noncommuting members violate and an abelian family would not;
# the least residual measured on any twin is 0.08, far above the 1e-3 bound
for _name in ("su2-tetra-vertex", "generic-vertex", "edge-form-3", "su2-4simplex-vertex",
              "nsimplex-su2toffoli"):
    CHECKS[f"{_name}-per-slot"] = replace(
        CHECKS[_name], name=f"{_name}-per-slot", fn=partial(CHECKS[_name].fn, per_slot=True),
        description=f"{_name} with one parameter per slot; passes when the residual exceeds 1e-3",
        tolerance=1e-3, invert=True)


# ---------------------------------------------------------------------------
# campaign


def _trial(runs, seed, vectors) -> list[tuple[np.ndarray, float]]:
    """One trial at ``seed``: each run's worst (raw, normalized) member and
    the seconds spent on its members, in run order.  Matrix-free Equation
    members share ``vectors`` vectors per register size, drawn once (each
    gets the bits it would get alone) and charged to the first reader.
    Nothing carries over between trials, so they may run in any order."""
    rows, spent, shared = [[] for _ in runs], [0.0] * len(runs), {}
    for k, (_, spec, use_n, use_mode) in enumerate(runs):
        c0 = time.perf_counter()
        for m in spec.fn(seed, n=use_n):
            if isinstance(m, Equation) and use_mode == "matrixfree":
                # evaluated below, on vectors drawn once for every equation of its size
                shared.setdefault(m.register_size, []).append((k, _sides(*m, use_mode)))
            else:
                rows[k].append(reversal_residual(*m, use_mode, vectors, seed)
                               if isinstance(m, Equation) else m)
        spent[k] += time.perf_counter() - c0
    for size, group in shared.items():
        results, seconds = _shared_vector_residuals([s for _, s in group], size, vectors, seed)
        for (k, _), result, sec in zip(group, results, seconds):
            rows[k].append(result)
            spent[k] += sec
    # np.max, unlike max(), lets a NaN member through to the verdict and max_residual
    return [(np.max(row, axis=0), sec) for row, sec in zip(rows, spent)]


def campaign(
    check_names: Sequence[str],
    trials: int = 20,
    seed: int = 0,
    tol: float | None = None,
    n: int | None = None,
    mode: str | None = None,
    vectors: int = DEFAULT_VECTORS,
) -> VerificationReport:
    """Run the named checks, ``trials`` times each with derived seeds
    seed + i, and aggregate deterministically.

    Trials run outermost, one ``_trial`` each.  A check's residual in a
    trial is its worst member, and its ``ms`` sums its trials' seconds.
    Equation members are evaluated in ``mode`` (else matrix-free for n-aware
    checks, dense for the rest).  ``tol`` overrides each check's default
    absolute tolerance on the normalized residual; ``n`` is honored only by
    checks that take a simplex order.  A check passes only if every
    normalized residual is finite and within its bound, or above it for an
    inverted check.  The verdict is the conjunction over checks (an empty
    campaign passes).  Fewer than one trial or vector, a negative seed, an
    ``n`` below 2, an unknown mode, an unregistered name, or an n-aware
    check's register beyond the residual-block ceiling raises
    CampaignArgumentError, all before any trial runs.
    """
    for label, value, least in (("trials", trials, 1), ("vectors", vectors, 1), ("seed", seed, 0),
                                ("n", n, 2)):
        if value is not None and value < least:
            raise CampaignArgumentError(f"{label} must be at least {least}, got {value}")
    if mode is not None:
        _check_mode(mode)
    runs = []
    for name in check_names:
        if name not in CHECKS:
            raise CampaignArgumentError(f"unknown check {name!r}; see 'simplexgates list --checks'")
        spec = CHECKS[name]
        use_n = n if (n is not None and spec.supports_n) else spec.default_n
        use_mode = mode if mode is not None else ("matrixfree" if spec.supports_n else "dense")
        if spec.supports_n:
            # refuse on the n(n+1)/2 sites before index_scheme (n**3) or the operator (4**n)
            _check_block(use_n * (use_n + 1) // 2, use_mode)
        runs.append((name, spec, use_n, use_mode))
    t0 = time.perf_counter()
    results = [_trial(runs, seed + i, vectors) for i in range(trials)]
    reports = []
    # per-run results are kept by position, so a check named twice gets two reports
    for (name, spec, use_n, use_mode), per_trial in zip(runs, zip(*results)):
        bound = float(tol) if tol is not None and not spec.invert else spec.tolerance
        norms = [float(norm) for (_, norm), _ in per_trial]
        ok = bool(norms) and all(math.isfinite(r) and (r > bound if spec.invert else r <= bound)
                                 for r in norms)
        reports.append(CheckReport(
            check=name,
            n=use_n,
            mode=use_mode,
            trials=trials,
            seed=seed,
            residuals=norms,
            raw_residuals=[float(raw) for (raw, _), _ in per_trial],
            max_residual=float(np.max(norms)),
            tolerance={"absolute": bound, "relative": 0.0},
            verdict="pass" if ok else "fail",
            ms=sum(sec for _, sec in per_trial) * 1000.0,
            predicate="residual_exceeds" if spec.invert else "residual_within",
        ))
    return VerificationReport(
        checks=reports,
        seed=seed,
        trials=trials,
        verdict="pass" if all(r.verdict == "pass" for r in reports) else "fail",
        ms=(time.perf_counter() - t0) * 1000.0,
    )
