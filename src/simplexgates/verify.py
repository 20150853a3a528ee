"""Simplex-equation instances and the named-check verification campaign,
the one place that picks the residual mode and its tolerances, which apply
to the normalized value of ``tensor._distance``, where every equation and
relation residual is computed.  Each matrix-free equation of a trial
and size draws the same vectors.  Campaign trial i is one ``_trial`` call
that draws everything from seed + i, so reports are reproducible bit for
bit (wall time aside) and trials could run in any order or in parallel.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import operators as op_families
from .gates import CCNOT, CNOT, local_conjugate
from .su2 import I2, H, X, AxisAngle, random_axis_angle
from .tensor import (_distance, _placed, _unitarity, _validated_sites, apply, embed,
                     frobenius_distance, random_operator, random_state, random_unitary)

__all__ = [
    "DENSE_SITE_LIMIT",
    "DEFAULT_VECTORS",
    "MODES",
    "CampaignArgumentError",
    "index_scheme",
    "edge_scheme",
    "Equation",
    "reversal_residual",
    "slot_equation",
    "random_su2_assignment",
    "random_mu_assignment",
    "CheckReport",
    "VerificationReport",
    "CheckSpec",
    "CHECKS",
    "campaign",
]

# dense mode is refused above 12 sites, a bound on time (4**12 entries per
# side, built in column blocks of 2**tensor._BLOCK_BITS).  The matrix-free
# limit, 24 sites, bounds memory: 3 state vectors on one CPU and 6 on two,
# 194 MiB traced at 21 sites on two, about 1.5 GiB at 24
DENSE_SITE_LIMIT = 12
DEFAULT_VECTORS = 20
# residual modes: each side's matrix in column blocks, or random vectors
MODES = ("dense", "matrixfree")


class CampaignArgumentError(ValueError):
    """A refused request, its message whole: a campaign asked for an
    unregistered check name, fewer than one trial, a negative seed, a
    simplex order below 2, or an unknown residual mode; a campaign or
    residual asked for fewer than 1 or over sys.maxsize vectors, a register
    of no sites or beyond the ceiling (DENSE_SITE_LIMIT sites dense, twice
    that matrix-free), an unknown mode, or an equation of fewer than two
    factors; and the command line found a non-integer SIMPLEX_SEED."""


def index_scheme(n: int) -> tuple[tuple[int, ...], ...]:
    """Vertex form of the n-simplex equation as a scheme: one placement tuple
    per operator, its sites in slot order, on a register of its largest site,
    here n(n+1)/2.  Sites are the 2-subsets {a, b} of {1, ..., n+1} in
    lexicographic order, numbered from 1; operator a acts on every site whose
    pair contains a.  Each of the n+1 operators touches n sites, every site is
    shared by exactly two of them, and any two share exactly one site."""
    if n < 2:
        raise ValueError(f"simplex order must be at least 2, got {n}")
    pairs = list(itertools.combinations(range(1, n + 2), 2))
    return tuple(tuple(i for i, p in enumerate(pairs, 1) if a in p) for a in range(1, n + 2))


def edge_scheme(n: int) -> tuple[tuple[int, ...], ...]:
    """Edge form of the n-simplex equation (Frenkel and Moore) on n+1 sites: the
    n-subsets of {1, ..., n+1} in lexicographic order, any two sharing n-1 sites."""
    if n < 2:
        raise ValueError(f"simplex order must be at least 2, got {n}")
    return tuple(itertools.combinations(range(1, n + 2), n))


def _check_mode(mode: str) -> None:
    """Refuse a residual mode that is not in MODES."""
    if mode not in MODES:
        raise CampaignArgumentError(
            f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")


def _check_block(register_size: int, mode: str) -> None:
    """Refuse an unknown mode, and a register of no sites or beyond the
    mode's ceiling: DENSE_SITE_LIMIT sites dense, twice that matrix-free."""
    _check_mode(mode)
    if register_size < 1:
        raise CampaignArgumentError(f"register must have at least one site, got {register_size}")
    most = DENSE_SITE_LIMIT if mode == "dense" else 2 * DENSE_SITE_LIMIT
    if register_size > most:
        hint = "; use matrixfree" if mode == "dense" else ""
        raise CampaignArgumentError(
            f"{mode} mode supports at most {most} sites, got {register_size}{hint}")


def _check_vectors(vectors: int) -> None:
    """Refuse fewer than one vector, or more than ``len`` of a range counts."""
    if not 1 <= vectors <= sys.maxsize:
        bound = "least 1" if vectors < 1 else f"most {sys.maxsize}"
        raise CampaignArgumentError(f"vectors must be at {bound}, got {vectors}")


class Equation(NamedTuple):
    """One simplex-equation instance: the product of the placed factors,
    composed left to right, equals the same product reversed.  A factor is
    (operator, sites), or (operator, sites, (U, Vh)) with operator - 1 = U Vh
    supplied, which ``tensor._placed`` checks before any use."""

    factors: Sequence[tuple]
    register_size: int


def reversal_residual(factors: Sequence[tuple], register_size: int,
                      mode: str = "dense", vectors: int = DEFAULT_VECTORS,
                      seed: int = 0) -> tuple[float, float]:
    """(raw, normalized) residual between the forward product L of the
    factors, composed left to right, and the same product reversed, R.

    The block is checked and fewer than two factors, which are their own
    reversal, are refused; then each factor, with or without its (U, Vh)
    (see ``Equation``), is placed and checked once, and R reuses the placed
    list; ``vectors`` outside 1..sys.maxsize is refused in either mode.
    Both modes are ``tensor._distance``: dense mode on pinned column blocks,
    matrix-free mode on ``vectors`` sign probes from a child stream of ``seed``.
    """
    _check_block(register_size, mode)
    _check_vectors(vectors)
    if len(factors) < 2:
        raise CampaignArgumentError(f"an equation needs at least two factors, got {len(factors)}")
    lhs = _placed(factors, register_size)
    return _distance(lhs, lhs[::-1], register_size, None if mode == "dense" else vectors, seed)


def slot_equation(tuples: Sequence[tuple[int, ...]], provider: Callable[[tuple], np.ndarray],
                  params: Sequence) -> Equation:
    """The simplex equation of a scheme, one operator per placement tuple
    (``index_scheme(n)`` for the n-simplex vertex form, ``edge_scheme(n)`` for
    the edge form), on a register of as many sites as its largest site, with
    one parameter per (placement, slot): ``params`` lists each tuple's slot
    parameters in tuple order.  ``provider`` maps one placement's parameters
    to its dense matrix, or to (matrix, (U, Vh)), the factor's third element
    then, and is called for every tuple before this returns, so it may close
    over a loop variable.  No tuple or an empty one, a site below 1, a
    repeated site, or a count other than the number of slots raises
    ValueError before any provider call."""
    if not (tuples and all(tuples)):
        raise ValueError(f"a scheme needs placements of at least one site, got {tuples}")
    register_size = max(map(max, tuples))
    tuples = [_validated_sites(tup, len(tup), register_size) for tup in tuples]
    slots = sum(map(len, tuples))
    if len(params) != slots:
        raise ValueError(f"params must cover all {slots} slots, got {len(params)}")
    rest = iter(params)
    built = [provider(tuple(itertools.islice(rest, len(tup)))) for tup in tuples]
    return Equation([(b[0], tup, b[1]) if isinstance(b, tuple) else (b, tup)
                     for b, tup in zip(built, tuples)], register_size)


def random_su2_assignment(register_size: int, rng: np.random.Generator) -> list[AxisAngle]:
    return [random_axis_angle(rng) for _ in range(register_size)]


def random_mu_assignment(register_size: int, rng: np.random.Generator) -> list[complex]:
    vals = rng.standard_normal(register_size) + 1j * rng.standard_normal(register_size)
    return [complex(v) for v in vals]


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


def _relation_distance(lhs, rhs, n) -> tuple[float, float]:
    """(||L - R||_F, that over ||L||_F) for the products L of ``lhs`` and R
    of ``rhs`` on an n-site register, an operator identity L = R."""
    return _distance(_placed(lhs, n), _placed(rhs, n), n)


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


def _drawn(tuples, per_slot, sample, rng) -> list:
    # ``sample``'s draws, one per slot, or one per site that each slot on it reads
    if per_slot:
        return sample(sum(map(len, tuples)), rng)
    drawn = sample(max(map(max, tuples)), rng)
    return [drawn[s - 1] for tup in tuples for s in tup]


@_register("su2-tetra-vertex",
           "rotation tetrahedron family against the 6-site vertex equation",
           1e-11, default_n=3)
def _check_su2_tetra_vertex(trial_seed, *, n, per_slot=False):
    rng = np.random.default_rng(trial_seed)
    tuples = index_scheme(3)
    params = _drawn(tuples, per_slot, random_su2_assignment, rng)
    alpha = float(rng.uniform(0, 2 * np.pi))
    return [slot_equation(tuples, lambda ps: op_families.su2_tetrahedron(*ps, alpha=alpha), params)]


def _generic_equations(trial_seed, tuples, per_slot) -> list[Equation]:
    # the coupled generic family on the trial's seeded_random site operators
    rng = np.random.default_rng(trial_seed)
    family = op_families.seeded_random(seed=trial_seed)
    couplings = op_families.CouplingConstants(*random_mu_assignment(7, rng))
    mus = _drawn(tuples, per_slot, random_mu_assignment, rng)
    return [slot_equation(tuples, lambda ps: op_families.generic_tetrahedron(family, ps, couplings),
                          mus)]


@_register("generic-vertex",
           "coupled generic family (seeded random site operators) against the 6-site vertex equation",
           1e-11, default_n=3)
def _check_generic_vertex(trial_seed, *, n, per_slot=False):
    return _generic_equations(trial_seed, index_scheme(3), per_slot)


@_register("edge-form-3",
           "coupled generic family against the 4-site edge-form equation",
           1e-11, default_n=3)
def _check_edge_form(trial_seed, *, n, per_slot=False):
    return _generic_equations(trial_seed, edge_scheme(3), per_slot)


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
    return [Equation([(m, t) for t in index_scheme(3)], 6) for m in members]


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
    tuples = index_scheme(4)
    params = _drawn(tuples, per_slot, random_su2_assignment, rng)
    alpha = float(rng.uniform(0, 2 * np.pi))
    return [slot_equation(tuples, lambda ps: op_families.su2_4simplex(*ps, alpha=alpha, variant=v),
                          params) for v in op_families.FOUR_SIMPLEX_VARIANTS]


@_register("nsimplex-constant",
           "diagonal constant n-simplex solution; defaults to n = 5 on 15 sites, matrix-free",
           1e-10, default_n=5, supports_n=True)
def _check_nsimplex_constant(trial_seed, *, n):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    member = op_families.n_simplex_constant(n, alpha)
    return [Equation([(member, t) for t in index_scheme(n)], n * (n + 1) // 2)]


@_register("nsimplex-su2toffoli",
           "rotated-control n-site Toffoli family (eigenprojector controls, i R flip) "
           "at generic SU(2) assignments; defaults to n = 5 on 15 sites, matrix-free",
           1e-10, default_n=5, supports_n=True)
def _check_nsimplex_su2toffoli(trial_seed, *, n, per_slot=False):
    rng = np.random.default_rng(trial_seed)
    tuples = index_scheme(n)
    params = _drawn(tuples, per_slot, random_su2_assignment, rng)
    return [slot_equation(tuples, op_families._su2_toffoli_factor, params)]


@_register("ccnot-negative-control",
           "CCNOT does NOT solve the constant vertex equation; passes when the residual exceeds 0.5",
           0.5, default_n=3, invert=True)
def _check_ccnot_negative_control(trial_seed, *, n):
    return [Equation([(CCNOT, t) for t in index_scheme(3)], 6)]


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


def _trial(runs, seed, vectors) -> list[tuple[np.ndarray, float]]:
    """One trial at ``seed``: each run's worst (raw, normalized) member and
    the seconds spent on its members, in run order.  Each Equation member is
    one ``reversal_residual`` call in the run's mode.  Nothing carries over
    between trials, so they may run in any order."""
    out = []
    for _, spec, use_n, use_mode in runs:
        c0 = time.perf_counter()
        row = [reversal_residual(*m, use_mode, vectors, seed) if isinstance(m, Equation) else m
               for m in spec.fn(seed, n=use_n)]
        # np.max, unlike max(), lets a NaN member through to the verdict and max_residual
        out.append((np.max(row, axis=0), time.perf_counter() - c0))
    return out


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
    absolute tolerance on the normalized residual, but never an inverted
    check's bound; ``n`` is honored only by checks that take a simplex
    order.  A check passes only if every normalized residual is finite and
    within its bound, or above it for an inverted check.  The verdict is the
    conjunction over checks (an empty campaign passes).  Fewer than one
    trial, vectors outside 1..sys.maxsize, a negative seed, an ``n`` below
    2, an unknown mode, an unregistered name, or an n-aware check's register
    beyond the residual-block ceiling raises CampaignArgumentError, all
    before any trial runs.
    """
    for label, value, least in (("trials", trials, 1), ("seed", seed, 0), ("n", n, 2)):
        if value is not None and value < least:
            raise CampaignArgumentError(f"{label} must be at least {least}, got {value}")
    _check_vectors(vectors)
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
            # refuse index_scheme(n)'s n(n+1)/2 sites before it (n**3) or the operator (4**n)
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
            check=name, n=use_n, mode=use_mode, trials=trials, seed=seed, residuals=norms,
            raw_residuals=[float(raw) for (raw, _), _ in per_trial],
            max_residual=float(np.max(norms)), tolerance={"absolute": bound, "relative": 0.0},
            verdict="pass" if ok else "fail", ms=sum(sec for _, sec in per_trial) * 1000.0,
            predicate="residual_exceeds" if spec.invert else "residual_within"))
    return VerificationReport(
        checks=reports, seed=seed, trials=trials, ms=(time.perf_counter() - t0) * 1000.0,
        verdict="pass" if all(r.verdict == "pass" for r in reports) else "fail")
