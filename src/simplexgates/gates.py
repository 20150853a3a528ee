"""Reference gate catalog and local-unitary conjugation."""

from __future__ import annotations

import numpy as np

from .tensor import arity_of, identity, kron

__all__ = [
    "CNOT",
    "CZ",
    "SWAP",
    "CCNOT",
    "CCZ",
    "n_toffoli",
    "local_conjugate",
]


def n_toffoli(n: int) -> np.ndarray:
    """Controlled flip on n sites: controls on the first n - 1, X on the
    last, firing only when every control is |1>.  n_toffoli(2) is CNOT and
    n_toffoli(3) the usual Toffoli / CCNOT."""
    if n < 2:
        raise ValueError(f"n_toffoli needs n >= 2, got {n}")
    gate = identity(n)
    d = 2**n
    gate[[d - 2, d - 1]] = gate[[d - 1, d - 2]]
    return gate


CNOT = n_toffoli(2)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CCNOT = n_toffoli(3)
CCZ = np.diag([1.0] * 7 + [-1.0]).astype(complex)


def local_conjugate(op: np.ndarray, singles) -> np.ndarray:
    """(s1 x s2 x ...) op (s1 x s2 x ...)+, one 2x2 factor per site."""
    op = np.asarray(op, dtype=complex)
    k = arity_of(op)
    singles = [np.asarray(s, dtype=complex) for s in singles]
    if len(singles) != k:
        raise ValueError(f"need {k} single-site factors, got {len(singles)}")
    for s in singles:
        if s.shape != (2, 2):
            raise ValueError(f"conjugating factors must be 2x2, got shape {s.shape}")
    w = kron(*singles) if k > 1 else singles[0]
    return w @ op @ w.conj().T
