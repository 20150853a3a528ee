"""Test references the package no longer exports: the dense matrix of a
product of placed factors, a product applied to a vector one whole factor
matrix at a time, an operator embedded by a Kronecker product with the
identity, the unitarity verdict, a reader for the operator files that
``simplexgates build --out`` writes, a scheme's equation whose slots read
one parameter per site, the sites of a simplex scheme that take two
roles, and the rotation and Toffoli families written as the sums of
Kronecker products that their identity-minus-one-product forms replace;
and, for the residual, a 12-site placement set, a norm summed as one dot,
and the column blocks of a matrix at pinned column bits."""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from simplexgates import tensor, verify
from simplexgates.su2 import I2, X, Z, rotation
from simplexgates.tensor import identity, kron


def product(factors, n):
    """The 2**n x 2**n matrix of a product of (operator, sites) factors,
    composed left to right, on an n-site register, in site order: the
    kernel contracted from the scalar 1 in two buffers of 4**n entries.
    Every site that no factor touches sees the identity."""
    placed = tensor._placed(factors, n)
    work = (np.empty(4**n, dtype=complex), np.empty(4**n, dtype=complex))
    return tensor._replay(tensor._program(placed, n, work)).reshape(2**n, 2**n)


# six 4-site placements on 12 sites, each site in two of them: a dense
# residual there pins 2 * 12 - _BLOCK_BITS = 9 column bits, those of sites
# 1-4, 6-8, 11 and 12 (``tensor._pins``), so its blocks are strided columns
TWELVE_SITE_TUPLES = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12),
                      (1, 5, 9, 2), (3, 6, 10, 7), (4, 8, 11, 12))


def dot_norm(a):
    """||a||_2 with every squared real and imaginary part summed by one
    ``np.dot`` of the float64 view of a C-contiguous copy of ``a`` with
    itself, the order in which a residual sums them."""
    f = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(np.float64)
    return math.sqrt(np.dot(f, f))


def pin_patterns(pins):
    """Every {site: bit} pattern of the sites ``pins``, the smallest site's
    bit most significant, in the order a dense residual visits them."""
    pins = sorted(pins)
    return [dict(zip(pins, bits)) for bits in itertools.product((0, 1), repeat=len(pins))]


def pinned_columns(matrix, n, pattern):
    """The columns of a 2**n x 2**n ``matrix`` whose column bits on the
    sites of ``pattern`` ({site: bit}) read its bits, in the order of the
    other sites' column bits in site order, as a C-contiguous 2**n x
    2**(n - len(pattern)) copy: a strided selection, not a slice."""
    index = tuple(pattern.get(s, slice(None)) for s in range(1, n + 1))
    return np.ascontiguousarray(matrix.reshape((2**n,) + (2,) * n)[(slice(None), *index)]
                                ).reshape(2**n, -1)


def apply_dense(factors, v):
    """A product of (operator, sites) factors, composed left to right,
    applied to the vector ``v``, last factor first: each factor's whole
    matrix is contracted with the state's axes of its sites by
    ``np.tensordot``, with no call into the kernel and no factored form."""
    n = len(v).bit_length() - 1
    t = np.asarray(v, dtype=complex).reshape((2,) * n)
    for op, sites in reversed(factors):
        k, axes = len(sites), [s - 1 for s in sites]
        t = np.tensordot(np.reshape(op, (2,) * 2 * k), t, axes=(range(k, 2 * k), axes))
        t = np.moveaxis(t, range(k), axes)
    return t.reshape(-1)


def embed_by_kron(op, sites, n):
    """``op`` on ``sites`` of an n-site register: kron(op, 1) over all 4**n
    entries, its wires then transposed into site order.  Its zeros are
    products with the identity's zeros, so they may carry a minus sign."""
    k = tensor.arity_of(op)
    big = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    # wire j of `big` is sites[j] - 1 for j < k, then the unlisted wires ascending
    order = [s - 1 for s in sites] + [w for w in range(n) if w + 1 not in sites]
    perm = np.argsort(order)
    t = big.reshape((2,) * (2 * n)).transpose(tuple(perm) + tuple(perm + n))
    return np.ascontiguousarray(t).reshape(2**n, 2**n)


def is_unitary(a):
    """The verdict half of ``tensor._unitarity``."""
    return tensor._unitarity(a)[1]


def read_operator(path):
    """The matrix of an operator file: row-major [re, im] entries."""
    data = json.loads(Path(path).read_text())
    entries = [complex(re, im) for re, im in data["entries"]]
    return np.array(entries, dtype=complex).reshape(data["dim"], data["dim"])


def site_equation(scheme, provider, assignment):
    """``verify.slot_equation`` with each slot of a site reading that site's
    parameter, ``assignment[site - 1]`` (anything the provider understands; a
    constant provider ignores them)."""
    return verify.slot_equation(scheme, provider, [assignment[s - 1] for t in scheme for s in t])


def role_conflicted_sites(scheme):
    """Sites that sit in the last slot of one placement and a non-last slot
    of another.  In the vertex form, a family that treats the last slot
    through a different function of the site parameter (general_toffoli)
    only satisfies the equation when these sites carry parameters making
    the two roles commute; the edge form (``edge_scheme(3)``) holds regardless."""
    targets = {t[-1] for t in scheme}
    controls = {s for t in scheme for s in t[:-1]}
    return sorted(targets & controls)


def su2_tetrahedron_sum(p_i, p_j, p_k, alpha=0.0):
    """((1 + i Ri)/2)((1 + i Rj)/2) + (1 + Ri Rj)/2
    + e^{i alpha} ((1 - i Ri)/2)((1 - i Rj)/2) (i Rk), term by term."""
    ri, rj, rk = rotation(p_i), rotation(p_j), rotation(p_k)
    return (
        kron((I2 + 1j * ri) / 2, (I2 + 1j * rj) / 2, I2)
        + (identity(3) + kron(ri, rj, I2)) / 2
        + np.exp(1j * alpha) * kron((I2 - 1j * ri) / 2, (I2 - 1j * rj) / 2, 1j * rk)
    )


def toffoli_family_sum(alpha):
    """|00><00| x 1 + (1 - Z x Z)/2 x 1 + e^{i alpha} |11><11| x X: the
    identity off |11> on the controls, the phased flip on it."""
    p0, p1 = (I2 + Z) / 2, (I2 - Z) / 2
    return (
        kron(p0, p0, I2)
        + kron((identity(2) - kron(Z, Z)) / 2, I2)
        + np.exp(1j * alpha) * kron(p1, p1, X)
    )


def su2_4simplex_sum(p_i, p_j, p_k, p_l, alpha=0.0, variant="three_control"):
    """1 - A_i A_j A_k plus e^{i alpha} A_i A_j (i R_l), with A_k on slot 3
    for three_control and the identity there for two_control."""
    a_i, a_j, a_k = ((I2 - 1j * rotation(p)) / 2 for p in (p_i, p_j, p_k))
    flip = 1j * rotation(p_l)
    out = identity(4) - kron(a_i, a_j, a_k, I2)
    if variant == "two_control":
        return out + np.exp(1j * alpha) * kron(a_i, a_j, I2, flip)
    return out + np.exp(1j * alpha) * kron(a_i, a_j, a_k, flip)
