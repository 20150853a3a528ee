"""Complex linear algebra on qubit registers.

Operators are dense complex matrices of shape ``(2**k, 2**k)`` acting on k
sites; states are flat complex vectors of length ``2**n``.  Site 1 is the
leftmost tensor factor / most significant bit, so basis state
|b1 b2 ... bn> lives at index sum(b_i * 2**(n - i)).  No public function
mutates its inputs (the random ones advance the generator they are given);
``_replay`` (in the buffers ``_program`` binds) and ``_fill_state`` write
into buffers their caller owns, one per thread.  ``_distance`` computes
every equation and relation residual.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

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
    Entry (i, j) of the operator is written at its 2**(n - k) positions,
    one per bit pattern of the unlisted sites, into a zero matrix: no
    Kronecker product with the identity and no transposed copy, and no
    call into the contraction kernel, which it serves as an oracle for.
    """
    op = np.asarray(op, dtype=complex)
    n = int(n)
    k = arity_of(op)
    sites = _validated_sites(sites, k, n)

    def offsets(wires):
        # the index offset of every bit pattern on ``wires``, the first wire most significant
        out = np.zeros(1, dtype=np.intp)
        for w in wires:
            out = (out[:, None] + np.array([0, 2 ** (n - w)])).reshape(-1)
        return out

    index = offsets(sites)[:, None] + offsets([s for s in range(1, n + 1) if s not in sites])
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[index[:, None, :], index[None, :, :]] = op[:, :, None]
    return out


def _placed(factors: Sequence[tuple], n: int) -> list:
    # every factor as (complex operator, validated sites, diagonal, factored),
    # checked once, where it enters, before the kernel that trusts it; with no
    # nonzero off-diagonal entry, diagonal lists (slot bits, entry) for its
    # entries not exactly 1, the only slices multiplied (x * (1 + 0j) = x up
    # to the sign of zero; NaN is kept), else factored is what ``_form`` keeps
    placed = []
    for op, sites, *form in factors:
        op = np.asarray(op, dtype=complex)
        k = arity_of(op)
        diag = np.diagonal(op).reshape((2,) * k)
        diag = ([(tuple(bits), diag[tuple(bits)]) for bits in np.argwhere(diag != 1).tolist()]
                if np.count_nonzero(op) == np.count_nonzero(diag) else None)
        placed.append((op, _validated_sites(sites, k, n), diag,
                       _form(op, *form) if form and diag is None else None))
    return placed


def _form(op: np.ndarray, form: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    """A factor's supplied ``op - 1 = U Vh``, kept for a d x d operator of at
    least 5 sites (below, a GEMM is as fast) when U is (d, r) and Vh (r, d),
    r < d/4, and ||op - 1 - U Vh||_F is within d * eps * ||op - 1||_F, finite
    and nonzero, so it changes a product by rounding alone; else None.  The
    norms are sums of squares: no LAPACK call."""
    u, vh = (np.asarray(x, dtype=complex) for x in form)
    d, r, a = len(op), len(vh), op - np.eye(len(op))
    bound = d * np.finfo(float).eps * np.linalg.norm(a)
    ok = d >= 32 and 4 * r < d and u.shape == (d, r) and vh.shape == (r, d) and 0 < bound < np.inf
    return (u, vh) if ok and np.linalg.norm(a - u @ vh) <= bound else None


@lru_cache(maxsize=256)
def _plan(n: int, factors: tuple, pinned: frozenset, shape: tuple) -> tuple[tuple, tuple]:
    """The steps that multiply placed factors, last one first, onto a
    working tensor of ``shape``, and the transpose that then puts its axes
    in site order, for ``_program`` to bind.  It reads only structure (each
    factor's sites and whether it is diagonal, the pinned sites, the start
    shape), so one plan serves every block, vector and trial of it.

    Shape () is the matrix, started from the scalar 1, whose untouched
    sites get identity factors (i None) that act last, as outer products;
    any other shape is a (2,) * n + (batch,) state.  ``axes[a]`` labels
    axis a of the working tensor: site s for its row wire, -s for its
    column wire, 0 for the batch axis.  A diagonal factor whose sites all
    have row axes is a step (i, transpose, None) and leaves ``axes`` as it
    is.  Every other factor gathers the row axes of its sites that the
    tensor holds, in its slot order, so the GEMM sums in one order whatever
    the layout, into a (2**held, rest) block; the rest axes keep the runs
    they form between held axes, the run of fewest axes first, so the
    copy's inner loop runs over the longest contiguous stretch, but the
    last step puts them in site order, so a last factor on sites 1..k in
    slot order leaves no transpose.  Its sites with no row axis yet act on
    the identity, so their input slots move to the output side of the
    operator: one (2**(k + new), 2**held) GEMM leaves the factor's row axes
    in front, then the new sites' column axes.  A new pinned site's input
    slot is indexed at its bit instead, so it gets no column axis.  Such a
    step is (i, transpose, (slots, pinned, rows, cols, shape)), with slots
    None when no site is new.  A GEMM step with slots None runs as the
    third kind, U (Vh g) + g, when the placed factor carries the (U, Vh) of
    ``_form``; ``_program`` reads that, so the plan and its key do not
    record it."""
    if shape == ():
        touched = {s for sites, _ in factors for s in sites}
        untouched = [(None, (s,), False) for s in range(1, n + 1) if s not in touched]
        axes, shape, tail = [], [], [-s for s in range(1, n + 1) if s not in pinned]
    else:
        untouched, axes, shape, tail = [], [*range(1, n + 1), 0], list(shape), [0]
    steps, todo = [], untouched + [(i, *f) for i, f in enumerate(factors)]
    for i, sites, diagonal in reversed(todo):
        new = [s for s in sites if s not in axes]
        if diagonal and not new:
            front = [axes.index(s) for s in sites]
            steps.append((i, tuple(front + [a for a in range(len(axes)) if a not in front]), None))
            continue
        held, slots, new_pins = [s for s in sites if s in axes] if new else sites, None, []
        if new:
            new_pins = [s for s in new if s in pinned]
            new = [s for s in new if s not in pinned]
            slots = (*range(len(sites)), *[len(sites) + sites.index(s) for s in new + held + new_pins])
        front = [axes.index(s) for s in held]
        bounds = [-1, *sorted(front), len(axes)]
        rest = [a for run in sorted((range(a + 1, b) for a, b in zip(bounds, bounds[1:])), key=len)
                for a in run]
        if (i, sites) == todo[0][:2]:
            rest.sort(key=lambda a: (axes[a] <= 0, abs(axes[a])))
        shape = [2] * (len(sites) + len(new)) + [shape[a] for a in rest]
        steps.append((i, tuple(front + rest), (slots, tuple(new_pins), 2 ** (len(sites) + len(new)),
                                               2 ** len(held), tuple(shape))))
        axes = [*sites, *[-s for s in new], *[axes[a] for a in rest]]
    return tuple(steps), tuple(axes.index(s) for s in [*range(1, n + 1), *tail])


def _program(placed: list, n: int, work: tuple[np.ndarray, np.ndarray], state=None,
             pinned: frozenset = frozenset()) -> tuple:
    """The ``_plan`` of the placed factors on an n-site register, bound once
    to ``work = (acc, gat)`` and ``state`` (None: the matrix) for ``_replay``:
    (steps, result), the result a C-contiguous site-order view of ``acc``,
    else of the front of ``gat``, where a last step copies it (also the state
    when no factor acts).  Each step holds fixed views, down to a diagonal
    factor's slices, and its operator in slot order, one (rows, cols) matrix
    per bit pattern of its new pinned sites, first most significant
    (``np.eye`` for an untouched site: a tracer may wrap the public
    identity).  No entry is read, so ``state`` may be refilled between
    replays.  Buffers need 4**n >> len(pinned) entries or ``state.size``."""
    acc, gat = work
    t = np.array(1, dtype=complex) if state is None else state.reshape((2,) * n + (-1,))
    plan, order = _plan(n, tuple((sites, diag is not None) for _, sites, diag, _ in placed),
                        pinned, t.shape)
    steps, caller = [], t
    for i, axes, gemm in plan:
        if gemm is None:
            source, t = (t, acc[:t.size].reshape(t.shape)) if t is caller else (None, t)
            views = [(t.transpose(axes)[(*bits, ...)], entry) for bits, entry in placed[i][2]]
            steps.append((source, t, None, (), views, None, None))
            continue
        slots, pins, rows, cols, shape = gemm
        op = np.eye(2, dtype=complex) if i is None else placed[i][0]
        op = op if slots is None else op.reshape((2,) * len(slots)).transpose(slots)
        ops = ([op[(..., *bits)].reshape(rows, cols) for bits in np.ndindex((2,) * len(pins))]
               if pins else [op.reshape(rows, cols)])
        moved = t.transpose(axes)
        gathered = gat[:t.size].reshape(moved.shape)
        out = acc[:rows * (t.size // cols)].reshape(rows, -1)
        steps.append((moved, gathered, ops, pins, gathered.reshape(cols, -1), out,
                      placed[i][3] if slots is None else None))
        t = out.reshape(shape)
    t = t.transpose(order)
    if not (steps and t.flags.c_contiguous):
        steps.append((t, gat[:t.size].reshape(t.shape), None, (), (), None, None))
        t = steps[-1][1]
    return steps, t


def _replay(program: tuple, pins: dict | None = None) -> np.ndarray:
    """Run a ``_program`` on its buffers, ``pins`` ({site: bit}) picking each
    pinned step's operator, and return its result view.  Each gather copies
    into ``gat`` and each GEMM writes into ``acc``, over the tensor the gather
    read; a diagonal factor multiplies in ``acc``, a first one copying the
    state there.  Only a factored GEMM allocates (Vh g, r x cols), and the
    state is written only if bound inside ``acc``, after its first read."""
    steps, result = program
    for source, gathered, ops, pinned, block, out, factored in steps:
        if source is not None:
            gathered[...] = source
        if out is None:
            for view, entry in block:
                view *= entry
            continue
        index = 0
        for s in pinned:
            index = 2 * index + pins[s]
        if factored is None:
            # out by position: the keyword costs about 1 us per small factor
            np.matmul(ops[index], block, out)
        else:
            np.matmul(factored[0], factored[1] @ block, out)
            out += block
    return result


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
    ``_replay``).  Site order is restored once, after the last factor,
    into a fresh array; the state itself is never written.  A state
    with no entries (0-d, or an empty axis) or a leading dimension that is
    not a power of two >= 2 raises one ValueError naming its shape.
    """
    state = np.asarray(state, dtype=complex)
    n = (len(state) if state.ndim else 0).bit_length() - 1
    if state.size == 0 or n < 1 or len(state) != 2**n:
        raise ValueError(f"state must be a (2**n, *batch) block with n >= 1 and no empty axis, "
                         f"got shape {state.shape}")
    work = (np.empty(state.size, dtype=complex), np.empty(state.size, dtype=complex))
    return _replay(_program(_placed(factors, n), n, work, state)).reshape(state.shape)


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


def _probe_words(size: int) -> int:
    # the raw 64-bit words of one sign probe of ``size`` amplitudes, two bits each
    return -(-size // 32)


_SIGNS = 1.0 - 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], 1, bitorder="little")


def _fill_state(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``v``, a flat complex array of 2**N entries, overwritten with a sign
    probe and returned: amplitude j is (+-1 +- i) 2**(-(N + 1) / 2), its real
    and imaginary parts negative where bits 2j and 2j + 1 are set in the
    ceil(2**(N + 1) / 64) words of one ``random_raw`` call (bit b is bit b % 64
    of word b // 64, least significant first), a byte at a time into ``v``."""
    width = min(4, v.size)
    raw = rng.bit_generator.random_raw(_probe_words(v.size)).astype("<u8", copy=False)
    # mode "clip", unlike "raise", writes into out unbuffered; a byte never clips
    np.take((_SIGNS * np.sqrt(0.5 / v.size)).view(complex)[:, :width],
            raw.view(np.uint8)[:v.size // width], axis=0, out=v.reshape(-1, width), mode="clip")
    return v


# each of at most two threads holds three 512 KiB column blocks: a 10-site
# su2-4simplex trial at 2**13, 2**14, 2**16 and 2**17 entries per block took
# 15/3/14/23% longer than at 2**15 on one CPU, 35/10/0/3% on two
_BLOCK_BITS = 15
_KEPT = threading.local()  # each calling thread's ``_halves`` buffers


def _side_norms(sides, pins=None, rng=None) -> tuple[float, float]:
    # (||L - R||, ||L||) of a half's ``_distance`` sides on the block of ``pins``,
    # the probe ``rng`` draws into z, or z: np.linalg.norm's sums, in site order
    z, left, right, norms = sides
    if rng is not None:
        _fill_state(z, rng)
    np.subtract(_replay(left, pins), _replay(right, pins), out=right[1])
    return tuple(math.sqrt(re.dot(re) + im.dot(im)) for re, im in norms)


def _halves(items: Sequence, size: int, run: Callable[[Sequence, int, tuple], list]) -> list:
    """``run(half, start, work)`` over the halves of ``items``, its lists of
    per-item results joined in item order; ``start`` is the half's index in
    ``items`` and ``work`` its own three complex buffers of ``size`` entries,
    all owned by the calling thread, which keeps them in ``_KEPT`` up to
    2**_BLOCK_BITS entries (a pool thread's allocations would land in a malloc
    arena of their own).  There are two halves when the process may run on
    two CPUs (``os.sched_getaffinity``, else ``os.cpu_count()``) and
    ``len(items) * size`` exceeds 2**_BLOCK_BITS; a pool thread then runs the
    second in a copy of the caller's context (numpy's errstate) and its
    exception is raised here, else the caller runs one.  The pool thread must
    call no public function, which a tracer may wrap."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cut = len(items) // 2 if (cpus or 1) > 1 and len(items) * size > 2**_BLOCK_BITS else 0
    kept = _KEPT.__dict__.setdefault("works", []) if size <= 2**_BLOCK_BITS else []
    kept += [tuple(np.empty(max(size, 2**_BLOCK_BITS), dtype=complex) for _ in range(3))
             for _ in range(1 + bool(cut) - len(kept))]
    works = [tuple(b[:size] for b in w) for w in kept]
    if not cut:
        return run(items, 0, works[0])
    # leaving the pool joins its thread, also when the caller's own half raises
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(contextvars.copy_context().run, run, items[cut:], cut, works[1])
        return run(items[:cut], 0, works[0]) + second.result()


def _distance(lhs, rhs, n, vectors=None, seed=0) -> tuple[float, float]:
    """(raw, normalized) residual of the products L of ``lhs`` and R of
    ``rhs`` on n sites: the roots of the items' ||(L - R) x||**2 and
    ||L x||**2 summed in item order, the first over the second normalized
    (raw where that is zero; a NaN goes through).  Dense items are the
    column blocks with the bits of sites 1..m, m = max(0, 2n - _BLOCK_BITS),
    pinned to each pattern: ||L - R||_F and ||L||_F, whole-matrix bits at
    m = 0.  Matrix-free items are ``vectors`` sign probes x (``_fill_state``),
    E[x x+] = 2**-n, from a child of ``seed``'s SeedSequence, apart from a
    check's ``default_rng(seed)``; raw times sqrt(2**n / vectors) estimates
    ||L - R||_F.  If ``_placed`` marks every factor diagonal, either mode has
    one item, the all-ones vector in z, whose norms are ||L - R||_F and
    ||L||_F exactly.  ``_halves`` splits the items; each half compiles L and
    R once and replays them per item, and skips the ``_probe_words`` of every
    vector before its own, so no bit depends on the CPU count."""
    if diagonal := all(diag is not None for _, _, diag, _ in (*lhs, *rhs)):
        items, size, scale, pinned = [None], 2**n, 1.0, None
    elif vectors is None:
        pinned = frozenset(range(1, max(0, 2 * n - _BLOCK_BITS) + 1))
        items = [dict(enumerate(bits, 1)) for bits in itertools.product((0, 1), repeat=len(pinned))]
        size, scale = 4**n >> len(pinned), 1.0
    else:
        stream = np.random.SeedSequence(seed).spawn(1)[0]
        items, size, scale, pinned = range(vectors), 2**n, math.sqrt(2**n / vectors), None

    def run(half, start, work):
        # L in (x, y), then in site order in y unless ``_plan`` left it so in x
        # (a vertex scheme's L ends on factor 1, on sites 1..n); R, reading z
        # first, in z and the buffer L left free, then in site order there
        x, y, z = work
        state, fixed = (z, frozenset()) if pinned is None else (None, pinned)
        left = _program(lhs, n, (x, y), state, fixed)
        free = x if np.may_share_memory(left[1], y) else y
        right = _program(rhs, n, (z, free), state, fixed)
        sides = z, left, right, [(a.ravel().real, a.ravel().imag) for a in (right[1], left[1])]
        if diagonal:
            z[:] = 1
        if vectors is None or diagonal:
            return [_side_norms(sides, pins=pins) for pins in half]
        rng = np.random.default_rng(stream)
        rng.bit_generator.advance(start * _probe_words(2**n))
        return [_side_norms(sides, rng=rng) for _ in half]

    raw, left = (math.sqrt(sum(x * x for x in norms)) for norms in zip(*_halves(items, size, run)))
    return raw * scale, raw / left if left > 0 else raw * scale


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm n-site state of iid real and imaginary parts uniform on
    [-1/2, 1/2), centred and normalized in its own memory: not Haar, but
    E[v v+] = 2**-n times the identity."""
    v = np.empty(2**n, dtype=complex)
    rng.random(out=v.view(np.float64))
    v -= 0.5 + 0.5j
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


def save_operator(op: np.ndarray, path: str | Path) -> None:
    """Write the operator as JSON: {"arity": k, "dim": 2**k, "entries":
    [[re, im], ...]}, entries row-major.  Floats round-trip exactly through
    JSON; a non-finite entry raises ValueError and leaves ``path`` as it was."""
    op = np.asarray(op, dtype=complex)
    k = arity_of(op)
    entries = [[float(z.real), float(z.imag)] for z in op.reshape(-1)]
    _write_text(path, json.dumps({"arity": k, "dim": 2**k, "entries": entries},
                                 allow_nan=False) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``, a writable regular file there (no symlink) unlinked
    first: ext4 flushes a file rewritten in place on close (55-75 ms on a 2-vCPU VM)."""
    path = Path(path)
    if path.is_file() and not path.is_symlink() and os.access(path, os.W_OK):
        path.unlink()
    path.write_text(text)

