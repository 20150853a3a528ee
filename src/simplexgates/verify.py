"""Simplex-equation instances, residual computation, and the named-check
verification campaign.

Residual conventions: both modes apply the two sides of an equation,
factor by factor, to a block of columns.  Dense mode applies them to the
2**N identity block, which yields both sides as 2**N x 2**N matrices, and
reports ||L - R||_F, plus that value divided by ||L||_F; tolerances apply
to the normalized value.  Matrix-free mode applies them to seeded random
unit vectors, one at a time, and reports the worst ||(L - R) v||_2,
normalized per vector by ||L v||_2.  Either mode reports the raw value
where the norm it would divide by is zero.
Campaign trial i draws everything from seed + i, so reports are
reproducible bit for bit (wall time aside) and trials could run in any
order or in parallel.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import operators as op_families
from .gates import CCNOT, CNOT, CZ, local_conjugate
from .su2 import H, X, AxisAngle, random_axis_angle
from .tensor import apply, embed, random_state, random_operator, random_unitary

__all__ = [
    "DENSE_SITE_LIMIT",
    "DEFAULT_VECTORS",
    "DenseDimensionError",
    "CampaignArgumentError",
    "UnknownCheckError",
    "SimplexIndexScheme",
    "index_scheme",
    "role_conflicted_sites",
    "reversal_residual",
    "vertex_residual",
    "edge_residual_3",
    "EDGE_TUPLES_3",
    "permutation_relation_suite",
    "constant_provider",
    "su2_tetrahedron_provider",
    "generic_tetrahedron_provider",
    "su2_4simplex_provider",
    "n_simplex_su2_provider",
    "random_su2_assignment",
    "random_mu_assignment",
    "CheckReport",
    "VerificationReport",
    "CheckSpec",
    "CHECKS",
    "campaign",
]

# a residual block holds at most 4**12 entries (~268 MB): the dense identity
# block on 12 sites, or one matrix-free vector on 24 sites
DENSE_SITE_LIMIT = 12
DEFAULT_VECTORS = 20

EDGE_TUPLES_3 = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


class DenseDimensionError(ValueError):
    """Residual requested beyond the register-size ceiling: a block of more
    than 4**DENSE_SITE_LIMIT entries, that is more than 12 sites in dense
    mode or 24 sites in matrix-free mode."""


class CampaignArgumentError(ValueError):
    """Campaign asked for fewer than one trial or vector, or a simplex order
    below 2."""


class UnknownCheckError(KeyError):
    """Campaign asked for a check name that is not registered."""


@dataclass(frozen=True)
class SimplexIndexScheme:
    """Sites and operator placements of one n-simplex equation instance.

    Sites are the 2-subsets {a, b} of {1, ..., n+1} in lexicographic order,
    numbered from 1; operator a acts on every site whose pair contains a,
    in lexicographic order.  Each of the n+1 operators then touches n
    sites, every site is shared by exactly two operators, and any two
    operators share exactly one site.
    """

    n: int
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
    return SimplexIndexScheme(n=n, register_size=len(pairs), tuples=tuples)


def role_conflicted_sites(scheme: SimplexIndexScheme) -> list[int]:
    """Sites that sit in the last slot of one placement and a non-last slot
    of another.  A family that treats the last slot through a different
    function of the site parameter (general_toffoli) only satisfies the
    equation when these sites carry parameters making the two roles
    commute."""
    targets = {t[-1] for t in scheme.tuples}
    controls = {s for t in scheme.tuples for s in t[:-1]}
    return sorted(targets & controls)


def _check_block(register_size: int, mode: str) -> None:
    """Refuse an unknown mode, and a residual block of more than
    4**DENSE_SITE_LIMIT entries: 2**N x 2**N in dense mode, 2**N per vector
    in matrix-free mode."""
    if mode not in ("dense", "matrixfree"):
        raise ValueError(f"mode must be 'dense' or 'matrixfree', got {mode!r}")
    most = DENSE_SITE_LIMIT if mode == "dense" else 2 * DENSE_SITE_LIMIT
    if register_size > most:
        hint = "; use matrixfree" if mode == "dense" else ""
        raise DenseDimensionError(
            f"{mode} mode supports at most {most} sites, got {register_size}{hint}"
        )


def _product_residual(
    lhs: Sequence[tuple[np.ndarray, Sequence[int]]],
    rhs: Sequence[tuple[np.ndarray, Sequence[int]]],
    register_size: int,
    mode: str = "dense",
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
) -> tuple[float, float]:
    """(raw, normalized) residual between two products of placed factors.

    Each side is a sequence of (operator, sites) pairs composed left to
    right, so its last factor acts first on a state; an empty side is the
    identity.  Both products are applied to the 2**N identity block in
    dense mode and to each of ``vectors`` seeded random unit vectors in
    matrix-free mode, keeping the worst vector.
    """
    _check_block(register_size, mode)
    lhs = [(np.asarray(op, dtype=complex), tuple(sites)) for op, sites in lhs]
    rhs = [(np.asarray(op, dtype=complex), tuple(sites)) for op, sites in rhs]
    if mode == "dense":
        blocks = [np.eye(2**register_size, dtype=complex)]
    else:
        rng = np.random.default_rng(seed)
        blocks = (random_state(register_size, rng) for _ in range(vectors))
    raws, norms = [], []
    for block in blocks:
        # the previous right side stays alive until this left side is
        # built: freeing both sides at once lets malloc trim the heap and
        # fault it back in for every vector, about 10% slower at 15 sites
        left = block
        for op, sites in reversed(lhs):
            left = apply(op, sites, left)
        right = block
        for op, sites in reversed(rhs):
            right = apply(op, sites, right)
        raw = float(np.linalg.norm(left - right))
        scale = float(np.linalg.norm(left))
        raws.append(raw)
        norms.append(raw / scale if scale > 0 else raw)
    # np.max, unlike max(), lets a NaN through to the verdict
    return float(np.max(raws)), float(np.max(norms))


def reversal_residual(
    factors: Sequence[tuple[np.ndarray, Sequence[int]]],
    register_size: int,
    mode: str = "dense",
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
) -> tuple[float, float]:
    """(raw, normalized) residual between the forward product of the
    factors and the same product reversed (see ``_product_residual``)."""
    factors = list(factors)
    return _product_residual(factors, factors[::-1], register_size, mode, vectors, seed)


# ---------------------------------------------------------------------------
# vertex and edge residuals


def _placed_pair(tuples, register_size, provider, assignment, mode, vectors, seed):
    # (raw, normalized) residual of one operator per placement tuple
    if len(assignment) != register_size:
        raise ValueError(
            f"assignment must cover all {register_size} sites, got {len(assignment)}"
        )
    factors = [(provider(tuple(assignment[s - 1] for s in tup)), tup) for tup in tuples]
    return reversal_residual(factors, register_size, mode=mode, vectors=vectors, seed=seed)


def vertex_residual(
    n: int,
    provider: Callable[[tuple], np.ndarray],
    assignment: Sequence,
    mode: str = "dense",
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
) -> float:
    """Normalized residual of the n-simplex vertex equation.

    ``provider`` maps the tuple of per-site parameters of one operator
    placement to its dense matrix; ``assignment`` lists one parameter per
    register site (entries may be anything the provider understands, and
    are ignored by constant providers).
    """
    scheme = index_scheme(n)
    return _placed_pair(scheme.tuples, scheme.register_size, provider, assignment,
                        mode, vectors, seed)[1]


def edge_residual_3(
    provider: Callable[[tuple], np.ndarray],
    assignment: Sequence,
    mode: str = "dense",
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
) -> float:
    """Normalized residual of the edge form of the tetrahedron equation:
    four arity-3 operators on the 4-site tuples (123)(124)(134)(234)."""
    return _placed_pair(EDGE_TUPLES_3, 4, provider, assignment, mode, vectors, seed)[1]


# ---------------------------------------------------------------------------
# providers and assignment samplers


def constant_provider(op: np.ndarray) -> Callable[[tuple], np.ndarray]:
    """Provider that ignores its parameters (constant operator families)."""
    op = np.asarray(op, dtype=complex)
    return lambda params: op


def su2_tetrahedron_provider(alpha: float = 0.0) -> Callable[[tuple], np.ndarray]:
    return lambda params: op_families.su2_tetrahedron(*params, alpha=alpha)


def generic_tetrahedron_provider(family, couplings) -> Callable[[tuple], np.ndarray]:
    return lambda params: op_families.generic_tetrahedron(family, params, couplings)


def su2_4simplex_provider(alpha: float = 0.0,
                          variant: str = "three_control") -> Callable[[tuple], np.ndarray]:
    return lambda params: op_families.su2_4simplex(*params, alpha=alpha, variant=variant)


def n_simplex_su2_provider() -> Callable[[tuple], np.ndarray]:
    return lambda params: op_families.n_simplex_su2_toffoli(params)


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
    config: dict | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.config is None:
            del out["config"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _check_report(check: str, pairs: Sequence[tuple[float, float]], bound: float, *,
                  n: int | None, mode: str, trials: int, seed: int, started: float,
                  invert: bool = False) -> CheckReport:
    """CheckReport over (raw, normalized) residual pairs.  The verdict is
    "pass" only for a non-empty list of finite normalized residuals that
    are all within ``bound``, or all above it for an inverted check.
    ``ms`` counts from ``started``, a time.perf_counter() value."""
    norms = [float(norm) for _, norm in pairs]
    ok = bool(norms) and all(
        math.isfinite(r) and (r > bound if invert else r <= bound) for r in norms
    )
    return CheckReport(
        check=check,
        n=n,
        mode=mode,
        trials=trials,
        seed=seed,
        residuals=norms,
        raw_residuals=[float(raw) for raw, _ in pairs],
        # np.max, unlike max(), lets a NaN trial show
        max_residual=float(np.max(norms)),
        tolerance={"absolute": bound, "relative": 0.0},
        verdict="pass" if ok else "fail",
        ms=(time.perf_counter() - started) * 1000.0,
        predicate="residual_exceeds" if invert else "residual_within",
    )


# ---------------------------------------------------------------------------
# permutation relation suite


def _perm_relation_residuals(p_1, p_2, p_3, rng) -> dict[str, tuple[float, float]]:
    tw = op_families.twisted_permutation
    p12, p23 = (tw(p_1, p_2), (1, 2)), (tw(p_2, p_3), (2, 3))
    out = {
        "braid": _product_residual([p12, p23, p12], [p23, p12, p23], 3),
        "involution": _product_residual([p12, p12], [], 2),
        # disjoint supports commute regardless of parameters; p_1 reused for site 4
        "distant_commutation": reversal_residual([p12, (tw(p_3, p_1), (3, 4))], 4),
    }
    for label, core in (("conjugation_x", X), ("conjugation_h", H),
                        ("conjugation_random", random_unitary(1, rng))):
        m1 = (op_families.conjugated_site_operator(p_1, core), (1,))
        m2 = (op_families.conjugated_site_operator(p_2, core), (2,))
        out[label] = _product_residual([p12, m1, p12], [m2], 2)
    return out


def permutation_relation_suite(p_1: AxisAngle, p_2: AxisAngle, p_3: AxisAngle,
                               seed: int = 0) -> CheckReport:
    """Braid, involution, and distant-commutation relations for placed
    twisted permutations, plus the shared-core conjugation exchange for
    cores X, H, and a seeded random unitary.

    The braid runs on a 3-site register with the (1,2) and (2,3)
    placements; distant commutation uses a 4-site register, where any
    parameters work because the supports are disjoint.
    """
    t0 = time.perf_counter()
    named = _perm_relation_residuals(p_1, p_2, p_3, np.random.default_rng(seed))
    return _check_report("perm-relations", list(named.values()),
                         CHECKS["perm-relations"].tolerance, n=None, mode="dense",
                         trials=1, seed=seed, started=t0)


# ---------------------------------------------------------------------------
# named checks


@dataclass(frozen=True)
class CheckSpec:
    """A registered check: one function run per trial, returning the
    (raw, normalized) residual for that trial's derived seed.  An inverted
    check passes when every residual exceeds ``tolerance`` instead."""

    name: str
    description: str
    fn: Callable[..., tuple[float, float]]
    tolerance: float
    default_n: int | None = None
    default_mode: str = "dense"
    supports_n: bool = False
    invert: bool = False


CHECKS: dict[str, CheckSpec] = {}


def _register(name: str, description: str, tolerance: float, **kwargs):
    def deco(fn):
        CHECKS[name] = CheckSpec(name=name, description=description, fn=fn,
                                 tolerance=tolerance, **kwargs)
        return fn

    return deco


@_register("su2-tetra-vertex",
           "rotation tetrahedron family against the 6-site vertex equation",
           1e-11, default_n=3)
def _check_su2_tetra_vertex(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    assignment = random_su2_assignment(6, rng)
    provider = su2_tetrahedron_provider(alpha=float(rng.uniform(0, 2 * np.pi)))
    return _placed_pair(index_scheme(3).tuples, 6, provider, assignment, mode, vectors, trial_seed)


@_register("generic-vertex",
           "coupled generic family (seeded random site operators) against the 6-site vertex equation",
           1e-11, default_n=3)
def _check_generic_vertex(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    family = op_families.SiteOperatorFamily.seeded_random(seed=trial_seed)
    provider = generic_tetrahedron_provider(family, op_families.CouplingConstants.random(rng))
    assignment = random_mu_assignment(6, rng)
    return _placed_pair(index_scheme(3).tuples, 6, provider, assignment, mode, vectors, trial_seed)


@_register("edge-form-3",
           "coupled generic family against the 4-site edge-form equation",
           1e-11, default_n=3)
def _check_edge_form(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    family = op_families.SiteOperatorFamily.seeded_random(seed=trial_seed)
    provider = generic_tetrahedron_provider(family, op_families.CouplingConstants.random(rng))
    assignment = random_mu_assignment(4, rng)
    return _placed_pair(EDGE_TUPLES_3, 4, provider, assignment, mode, vectors, trial_seed)


@_register("constant-vertex",
           "constant solutions (sign flip, phased, two-phase, linear) against the vertex equation",
           1e-12, default_n=3)
def _check_constant_vertex(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    alpha, beta = rng.uniform(0, 2 * np.pi, 2)
    a, b = (complex(x, y) for x, y in rng.standard_normal((2, 2)))
    members = [
        op_families.constant_ccz(),
        op_families.constant_alpha(alpha),
        op_families.constant_alpha_beta(alpha, beta),
        op_families.constant_linear(a, b),
    ]
    tuples, assignment = index_scheme(3).tuples, [None] * 6
    pairs = [
        _placed_pair(tuples, 6, constant_provider(m), assignment, mode, vectors, trial_seed)
        for m in members
    ]
    return max(p[0] for p in pairs), max(p[1] for p in pairs)


@_register("hadamard-bridge",
           "Hadamard conjugations: sign-flip solutions onto CCNOT, the phased family onto the Toffoli family, CZ onto CNOT",
           1e-14)
def _check_hadamard_bridge(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    eye2 = np.eye(2, dtype=complex)
    dists = [
        float(np.linalg.norm(local_conjugate(op_families.constant_ccz(), [eye2, eye2, H]) - CCNOT)),
        float(np.linalg.norm(local_conjugate(op_families.constant_alpha(alpha), [eye2, eye2, H])
                             - op_families.toffoli_family(alpha))),
        float(np.linalg.norm(local_conjugate(op_families.cz_yangbaxter(), [eye2, H]) - CNOT)),
    ]
    worst = max(dists)
    return worst, worst


@_register("toffoli-reduction",
           "gate reductions: Toffoli family at alpha 0 vs CCNOT, projector Toffoli at its special point, rotation tetrahedron onto the Toffoli family",
           1e-14)
def _check_toffoli_reduction(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    z_axis, x_axis = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    ctrl = AxisAngle(z_axis, np.pi / 2)
    dists = [
        float(np.linalg.norm(op_families.toffoli_family(0.0) - CCNOT)),
        float(np.linalg.norm(op_families.general_toffoli(ctrl, ctrl, AxisAngle(z_axis, 0.0)) - CCNOT)),
        float(np.linalg.norm(op_families.su2_tetrahedron(ctrl, ctrl, AxisAngle(x_axis, np.pi / 2),
                                                         alpha=alpha)
                             - op_families.toffoli_family(alpha))),
    ]
    worst = max(dists)
    return worst, worst


@_register("unitary-families",
           "unitarity of the Toffoli family, the two-phase constant family, and the projector Toffoli",
           1e-13)
def _check_unitary_families(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    alpha, beta = rng.uniform(0, 2 * np.pi, 2)
    members = [
        op_families.toffoli_family(alpha),
        op_families.constant_alpha_beta(alpha, beta),
        op_families.general_toffoli(random_axis_angle(rng), random_axis_angle(rng),
                                    random_axis_angle(rng)),
    ]
    devs = [float(np.linalg.norm(m @ m.conj().T - np.eye(8, dtype=complex))) for m in members]
    return max(devs), max(devs) / np.sqrt(8.0)


@_register("perm-relations",
           "twisted permutation relations: braid, involution, distant commutation, conjugation exchange",
           1e-13)
def _check_perm_relations(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    named = _perm_relation_residuals(random_axis_angle(rng), random_axis_angle(rng),
                                     random_axis_angle(rng), rng)
    return max(r for r, _ in named.values()), max(nm for _, nm in named.values())


@_register("su2-4simplex-vertex",
           "both 4-site rotation family variants against the 10-site vertex equation",
           1e-10, default_n=4)
def _check_su2_4simplex_vertex(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    assignment = random_su2_assignment(10, rng)
    alpha = float(rng.uniform(0, 2 * np.pi))
    pairs = [
        _placed_pair(index_scheme(4).tuples, 10, su2_4simplex_provider(alpha, variant),
                     assignment, mode, vectors, trial_seed)
        for variant in op_families.FOUR_SIMPLEX_VARIANTS
    ]
    return max(p[0] for p in pairs), max(p[1] for p in pairs)


@_register("nsimplex-constant",
           "diagonal constant n-simplex solution; defaults to n = 5 on 15 sites, matrix-free",
           1e-10, default_n=5, default_mode="matrixfree", supports_n=True)
def _check_nsimplex_constant(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    alpha = float(rng.uniform(0, 2 * np.pi))
    member = op_families.n_simplex_constant(n, alpha)
    scheme = index_scheme(n)
    return _placed_pair(scheme.tuples, scheme.register_size, constant_provider(member),
                        [None] * scheme.register_size, mode, vectors, trial_seed)


@_register("nsimplex-su2toffoli",
           "rotated-control n-site Toffoli family (eigenprojector controls, i R flip) "
           "at generic SU(2) assignments; defaults to n = 5 on 15 sites, matrix-free",
           1e-10, default_n=5, default_mode="matrixfree", supports_n=True)
def _check_nsimplex_su2toffoli(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    scheme = index_scheme(n)
    assignment = random_su2_assignment(scheme.register_size, rng)
    return _placed_pair(scheme.tuples, scheme.register_size, n_simplex_su2_provider(),
                        assignment, mode, vectors, trial_seed)


@_register("ccnot-negative-control",
           "CCNOT does NOT solve the constant vertex equation; passes when the residual exceeds 0.5",
           0.5, default_n=3, invert=True)
def _check_ccnot_negative_control(trial_seed, *, n, mode, vectors):
    return _placed_pair(index_scheme(3).tuples, 6, constant_provider(CCNOT), [None] * 6,
                        mode, vectors, trial_seed)


@_register("apply-vs-embed",
           "matrix-free application agrees with dense embedding on random 3-site operators and 8-site states",
           1e-13)
def _check_apply_vs_embed(trial_seed, *, n, mode, vectors):
    rng = np.random.default_rng(trial_seed)
    op = random_operator(3, rng)
    sites = tuple(int(s) + 1 for s in rng.permutation(8)[:3])
    v = random_state(8, rng)
    raw = float(np.linalg.norm(apply(op, sites, v) - embed(op, sites, 8) @ v))
    return raw, raw


# ---------------------------------------------------------------------------
# campaign


def campaign(
    check_names: Sequence[str],
    trials: int = 20,
    seed: int = 0,
    tol: float | None = None,
    n: int | None = None,
    mode: str | None = None,
    vectors: int = DEFAULT_VECTORS,
    config: dict | None = None,
) -> VerificationReport:
    """Run the named checks, ``trials`` times each with derived seeds
    seed + i, and aggregate deterministically.

    ``tol`` overrides each check's default absolute tolerance on the
    normalized residual; ``n`` is honored only by checks that take a
    simplex order; ``mode``/``vectors`` configure the residual backend.
    The verdict is the conjunction over checks (an empty campaign passes).
    Fewer than one trial or vector, or an ``n`` below 2, raises
    CampaignArgumentError before any trial runs; a register beyond the
    residual-block ceiling raises DenseDimensionError.
    """
    for label, value, least in (("trials", trials, 1), ("vectors", vectors, 1), ("n", n, 2)):
        if value is not None and value < least:
            raise CampaignArgumentError(f"{label} must be at least {least}, got {value}")
    t0 = time.perf_counter()
    reports = []
    for name in check_names:
        try:
            spec = CHECKS[name]
        except KeyError:
            raise UnknownCheckError(name) from None
        c0 = time.perf_counter()
        use_n = n if (n is not None and spec.supports_n) else spec.default_n
        use_mode = mode if mode is not None else spec.default_mode
        if spec.supports_n:
            # the n-site operator itself grows as 4**n: refuse before building it
            _check_block(index_scheme(use_n).register_size, use_mode)
        bound = float(tol) if tol is not None and not spec.invert else spec.tolerance
        pairs = [spec.fn(seed + i, n=use_n, mode=use_mode, vectors=vectors)
                 for i in range(trials)]
        reports.append(_check_report(name, pairs, bound, n=use_n, mode=use_mode,
                                     trials=trials, seed=seed, started=c0,
                                     invert=spec.invert))
    return VerificationReport(
        checks=reports,
        seed=seed,
        trials=trials,
        verdict="pass" if all(r.verdict == "pass" for r in reports) else "fail",
        ms=(time.perf_counter() - t0) * 1000.0,
        config=config,
    )
