"""Complex linear algebra on qubit registers.

Operators are dense complex matrices of shape ``(2**k, 2**k)`` acting on k
sites; states are flat complex vectors of length ``2**n``.  Site 1 is the
leftmost tensor factor / most significant bit, so basis state
|b1 b2 ... bn> lives at index sum(b_i * 2**(n - i)).  Every function here
is pure and never mutates its inputs, so the whole module is safe to call
concurrently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "arity_of",
    "identity",
    "kron",
    "embed",
    "apply_product",
    "apply",
    "frobenius_distance",
    "random_state",
    "random_operator",
    "random_unitary",
    "operator_to_dict",
    "save_operator",
]


def arity_of(op: np.ndarray) -> int:
    """Number of sites a dense operator acts on (matrix is 2**k square)."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {op.shape}")
    dim = int(op.shape[0])
    k = dim.bit_length() - 1
    if dim < 2 or 2**k != dim:
        raise ValueError(f"operator dimension {dim} is not a power of two >= 2")
    return k


def identity(k: int) -> np.ndarray:
    """Identity on a k-site register."""
    return np.eye(2**k, dtype=complex)


def kron(a: np.ndarray, b: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor takes the more significant slots.
    One broadcast multiply per factor, the one ``np.kron`` makes on 2-D
    arrays, so the result equals chained ``np.kron`` bit for bit."""
    out = np.ascontiguousarray(a, dtype=complex)
    for m in (np.ascontiguousarray(x, dtype=complex) for x in (b, *rest)):
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(len(out) * len(m), -1)
    return out


def _validated_sites(sites: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    sites = tuple(int(s) for s in sites)
    if len(sites) != k:
        raise ValueError(f"operator acts on {k} sites but {len(sites)} were listed")
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate site in {sites}")
    for s in sites:
        if not 1 <= s <= n:
            raise ValueError(f"site {s} outside register 1..{n}")
    return sites


def embed(op: np.ndarray, sites: Sequence[int], n: int) -> np.ndarray:
    """Lift an arity-k operator onto an n-site register.

    The operator's first tensor slot attaches to ``sites[0]``, the second
    to ``sites[1]``, and so on; every unlisted site sees the identity.
    """
    op = np.asarray(op, dtype=complex)
    n = int(n)
    k = arity_of(op)
    sites = _validated_sites(sites, k, n)
    if sites == tuple(range(1, n + 1)):
        return op.copy()
    big = np.kron(op, np.eye(2 ** (n - k), dtype=complex)) if k < n else op
    # wire j of `big` is sites[j] - 1 for j < k, then the unlisted wires ascending
    listed = set(sites)
    order = [s - 1 for s in sites] + [w for w in range(n) if w + 1 not in listed]
    perm = np.argsort(order)
    t = big.reshape((2,) * (2 * n))
    t = t.transpose(tuple(perm) + tuple(perm + n))
    return np.ascontiguousarray(t).reshape(2**n, 2**n)


def _placed(factors: Sequence[tuple[np.ndarray, Sequence[int]]], n: int) -> list:
    # every factor as (complex operator, validated sites, diagonal): the one
    # check of a factor, made where it enters, before the kernel that trusts
    # it; if no off-diagonal entry is nonzero, the diagonal is the list of
    # (slot bits, entry) of its entries that are not exactly 1
    placed = []
    for op, sites in factors:
        op = np.asarray(op, dtype=complex)
        k = arity_of(op)
        diag = np.diagonal(op).reshape((2,) * k)
        diag = ([(tuple(bits), diag[tuple(bits)]) for bits in np.argwhere(diag != 1).tolist()]
                if np.count_nonzero(op) == np.count_nonzero(diag) else None)
        placed.append((op, _validated_sites(sites, k, n), diag))
    return placed


def _contract(placed: list, t: np.ndarray, axes: list[int], work: tuple[np.ndarray, np.ndarray],
              pins: dict[int, int]) -> tuple[np.ndarray, list[int]]:
    """Multiply the placed factors, last one first, onto the tensor ``t``.
    They arrive from ``_placed``, so each operator is complex, its sites
    are checked and its diagonal is marked; nothing here checks them again.

    ``axes[a]`` labels axis a of ``t``: site s for its row wire, -s for its
    column wire, 0 for the batch axis.  A diagonal factor whose sites all
    have row axes multiplies, in place, only the slices of ``t`` where its
    sites read a diagonal entry that is not exactly 1 (x * (1 + 0j) = x up
    to the sign of zero; a NaN entry is multiplied): no gather, no GEMM,
    and ``axes`` stays as it is.  Every other factor gathers the row axes
    of its sites that ``t`` already holds, in its slot order, so the GEMM
    sums in one order whatever the layout, into a (2**held, rest) block.
    The rest axes keep the runs they form between held axes in ``t``, the
    run of fewest axes first, so the copy's inner loop runs over the
    longest contiguous stretch.  Its sites with no row axis yet act on the
    identity, so their input slots move to the output side of the
    operator: one (2**(k + new), 2**held) GEMM leaves the factor's row
    axes in front, then the new sites' column axes.  A new site pinned to
    bit b in ``pins`` has its input slot indexed at b instead, so it gets
    no column axis; with no pins, none of this runs.

    ``work = (acc, gat)`` are two flat complex buffers, each at least as
    large as the largest working tensor, and nothing else is allocated at
    that size: the gather copies ``t`` into ``gat`` and the GEMM writes
    into ``acc``, over the previous working tensor, which the gather has
    already read.  A diagonal factor multiplies in ``acc``, first copying
    the caller's ``t`` there if it is still that very array, so ``t``
    itself is never written.  The result is a view of ``acc``, or ``t``
    itself when there is no factor.
    """
    acc, gat = work
    caller = t
    for op, sites, diag in reversed(placed):
        new = [s for s in sites if s not in axes]
        if diag is not None and not new:
            if t is caller:
                t = _copied(t, acc)
            front = [axes.index(s) for s in sites]
            moved = t.transpose(front + [a for a in range(t.ndim) if a not in front])
            for bits, entry in diag:
                moved[bits] *= entry
            continue
        held = [s for s in sites if s in axes] if new else sites
        if new:
            k = len(sites)
            pinned = [s for s in new if s in pins] if pins else []
            new = [s for s in new if s not in pins] if pinned else new
            slots = list(range(k)) + [k + sites.index(s) for s in new + held + pinned]
            op = op.reshape((2,) * (2 * k)).transpose(slots)
            if pinned:
                op = op[(..., *[pins[s] for s in pinned])]
            op = op.reshape(-1, 2 ** len(held))
        front = [axes.index(s) for s in held]
        bounds = [-1, *sorted(front), t.ndim]
        rest = [a for run in sorted((range(a + 1, b) for a, b in zip(bounds, bounds[1:])), key=len)
                for a in run]
        moved = t.transpose(front + rest)
        gathered = gat[:t.size].reshape(moved.shape)
        gathered[...] = moved
        out = acc[:op.shape[0] * (t.size // op.shape[1])].reshape(op.shape[0], -1)
        # out by position: the keyword costs about 1 us per small factor
        np.matmul(op, gathered.reshape(op.shape[1], -1), out)
        t = out.reshape((2,) * (len(sites) + len(new)) + moved.shape[len(front):])
        axes = [*sites, *[-s for s in new], *[axes[a] for a in rest]]
    return t, axes


def _product_view(placed: list, n: int, work: tuple[np.ndarray, np.ndarray],
                  state: np.ndarray | None = None, pins: dict | None = None) -> np.ndarray:
    """The product of factors already placed by ``_placed`` on an n-site
    register, contracted in ``work`` (see ``_contract``) and returned as a
    view with its axes in site order, not copied: the (2,) * 2n tensor of
    the 2**n x 2**n matrix, or, applied to ``state``, the (2,) * n +
    (batch,) tensor of ``apply_product``.  The matrix starts from the
    scalar 1, so ``work`` needs 4**n entries; a state needs
    ``state.size``.  ``pins``, a {site: bit} map, keeps only the matrix
    columns where those sites read those bits, in 4**n >> len(pins) entries."""
    pins = pins or {}
    if state is None:
        touched = {s for _, sites, _ in placed for s in sites}
        # identities on untouched sites act last, as outer products on the full tensor
        placed = [(identity(1), (s,), None) for s in range(1, n + 1) if s not in touched] + placed
        t, axes = np.ones((), dtype=complex), []
        tail = [-s for s in range(1, n + 1) if s not in pins]
    else:
        t, axes, tail = state.reshape((2,) * n + (-1,)), list(range(1, n + 1)) + [0], [0]
    t, axes = _contract(placed, t, axes, work, pins)
    return t.transpose([axes.index(s) for s in [*range(1, n + 1), *tail]])


def _copied(view: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``view`` copied into the front of the flat ``buffer``, in its shape."""
    out = buffer[:view.size].reshape(view.shape)
    out[...] = view
    return out


def apply_product(
    factors: Sequence[tuple[np.ndarray, Sequence[int]]], state: np.ndarray
) -> np.ndarray:
    """Apply a product of placed operators to a statevector, or to every
    column of a block of shape ``(2**n, *batch)``.

    ``factors`` is a sequence of (operator, sites) pairs composed left to
    right, so the last factor acts first; an empty sequence is the
    identity.  Equal to ``embed(op_1, sites_1, n) @ ... @ embed(op_m,
    sites_m, n) @ state`` but runs in O(2**n * 2**k) time per column and
    factor and never forms a 2**n x 2**n matrix: each factor gathers its
    sites and multiplies them, or, if diagonal, multiplies elementwise (see
    ``_contract``).  Site order is restored once, after the last factor,
    into a fresh array; the state itself is never written.  A state
    with no entries (0-d, or an empty axis) or a leading dimension that is
    not a power of two >= 2 raises one ValueError naming its shape.
    """
    state = np.asarray(state, dtype=complex)
    n = (len(state) if state.ndim else 0).bit_length() - 1
    if state.size == 0 or n < 1 or len(state) != 2**n:
        raise ValueError(f"state must be a (2**n, *batch) block with n >= 1 and no empty axis, "
                         f"got shape {state.shape}")
    placed = _placed(factors, n)
    work = (np.empty(state.size, dtype=complex), np.empty(state.size, dtype=complex))
    return _copied(_product_view(placed, n, work, state), work[1]).reshape(state.shape)


def apply(op: np.ndarray, sites: Sequence[int], state: np.ndarray) -> np.ndarray:
    """Apply an arity-k operator to the listed sites of a statevector, or
    of every column of a block of shape ``(2**n, *batch)``: the one-factor
    ``apply_product``, equal to ``embed(op, sites, n) @ state``."""
    return apply_product([(op, sites)], state)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b; zero iff the operators are equal."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if arity_of(a) != arity_of(b):
        raise ValueError(f"arity mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _unitarity(a: np.ndarray) -> tuple[float, bool]:
    """(||a a+ - 1||_F, whether a is unitary) from one product a a+, with 1
    subtracted from its diagonal in place: the same bits as minus identity.
    Unitary means a deviation within 1e-10 absolute plus 1e-12 times
    ||1||_F = sqrt(dim).  A finite a whose product overflows deviates by inf."""
    a = np.asarray(a, dtype=complex)
    k = arity_of(a)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.conj().T
        gram.flat[::2**k + 1] -= 1
        deviation = float(np.linalg.norm(gram))
    if np.isnan(deviation) and np.isfinite(a).all():
        deviation = np.inf
    return deviation, deviation <= 1e-10 + 1e-12 * float(np.sqrt(2**k))


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm n-site state with iid complex Gaussian amplitudes, all real
    parts drawn before the imaginary ones, through one work array of at
    most 2**14 entries: the stream of one whole draw, with no 2**n temporary."""
    v, work = np.empty(2**n, dtype=complex), np.empty(min(2**n, 2**14))
    for half in (v.real, v.imag):
        for start in range(0, 2**n, work.size):
            half[start:start + work.size] = rng.standard_normal(out=work)
    v /= np.linalg.norm(v)
    return v


def random_operator(k: int, rng: np.random.Generator) -> np.ndarray:
    """Dense k-site operator with iid complex Gaussian entries."""
    d = 2**k
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed k-site unitary (QR with phase-fixed diagonal)."""
    q, r = np.linalg.qr(random_operator(k, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def operator_to_dict(op: np.ndarray) -> dict:
    """Portable form: {"arity": k, "dim": 2**k, "entries": [[re, im], ...]}.

    Entries are row-major; floats round-trip exactly through JSON.
    """
    op = np.asarray(op, dtype=complex)
    k = arity_of(op)
    entries = [[float(z.real), float(z.imag)] for z in op.reshape(-1)]
    return {"arity": k, "dim": 2**k, "entries": entries}


def save_operator(op: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(json.dumps(operator_to_dict(op), allow_nan=False) + "\n")

