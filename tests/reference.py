"""Test references the package no longer exports: the dense matrix of a
product of placed factors, a product applied to a vector one whole factor
matrix at a time, an operator embedded by a Kronecker product with the
identity, the unitarity verdict, a reader for the operator files that
``simplexgates build --out`` writes, a scheme's equation whose slots read
one parameter per site, and the sites of a simplex scheme that take two
roles."""

import json
from pathlib import Path

import numpy as np

from simplexgates import tensor, verify


def product(factors, n):
    """The 2**n x 2**n matrix of a product of (operator, sites) factors,
    composed left to right, on an n-site register, in site order: the
    kernel contracted from the scalar 1 in two buffers of 4**n entries.
    Every site that no factor touches sees the identity."""
    placed = tensor._placed(factors, n)
    work = (np.empty(4**n, dtype=complex), np.empty(4**n, dtype=complex))
    return tensor._replay(tensor._program(placed, n, work)).reshape(2**n, 2**n)


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
