"""Small linear-algebra helpers shared across modules.

Matrices are complex ndarrays or scipy sparse matrices; a sparse input stays
sparse, so a residual of a matrix with a few entries per row costs only the
products of those entries.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = ["BLOCK", "CapacityError", "as_complex", "max_abs", "vector_norm", "worst",
           "unitarity_residual", "require_unitary"]

# Rows or columns per block wherever an ndarray's products or defects are
# formed a block at a time: the temporaries are block x side, not side x
# side.
BLOCK = 64


class CapacityError(RuntimeError):
    """Raised when a dense materialization would exceed the size guard."""


def as_complex(a):
    """``a`` as a complex CSR matrix if it is sparse, else as a complex ndarray."""
    if sp.issparse(a):
        return sp.csr_matrix(a, dtype=complex)
    return np.asarray(a, dtype=complex)


def max_abs(a) -> float:
    """Entrywise max-norm (over the stored entries of a sparse matrix); 0.0
    for empty input.  A NaN entry gives NaN."""
    if sp.issparse(a):
        a = sp.csr_matrix(a)
        a.sum_duplicates()
        a = a.data
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def vector_norm(vec: np.ndarray) -> float:
    """2-norm of a contiguous complex vector, summed by einsum on the
    calling thread: numpy's norm calls a BLAS dot, which hands a long
    vector to the thread pool."""
    flat = vec.view(float)
    return float(np.sqrt(np.einsum("i,i", flat, flat)))


def worst(values) -> float:
    """The largest of an iterable of floats, 0.0 if there are none, and NaN
    if any is NaN, so that a NaN residual fails every gate; the builtin
    ``max`` keeps or drops a NaN by its place.  The values are drawn one at
    a time, so a generator holds one residual's arrays at a time."""
    top = None
    for value in map(float, values):
        if math.isnan(value):
            return value
        if top is None or value > top:
            top = value
    return 0.0 if top is None else top


def unitarity_residual(a) -> float:
    """max(|A*A - I|, |AA* - I|) entrywise, for an ndarray or a sparse matrix.

    An ndarray's products are formed ``BLOCK`` rows at a time, as the
    rows ``A[:, r]* A`` of A*A and the conjugate rows ``conj(A[r, :]) A^T``
    of AA*, so no side x side array is made; the conjugate has the moduli of
    AA* - I.
    """
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    side = a.shape[0]
    if sp.issparse(a):
        eye = sp.identity(side, dtype=complex, format="csr")
        adj = a.conj().T
        return worst(max_abs(x @ y - eye) for x, y in ((adj, a), (a, adj)))

    def defects():
        for lo in range(0, side, BLOCK):
            rows = slice(lo, lo + BLOCK)
            for gram in (a[:, rows].conj().T @ a, a[rows].conj() @ a.T):
                k = gram.shape[0]
                gram[np.arange(k), lo + np.arange(k)] -= 1
                yield max_abs(gram)

    return worst(defects())


def require_unitary(a, tol: float, what: str = "matrix"):
    """Return ``a`` as complex (see ``as_complex``), raising ``ValueError``
    unless it is unitary.

    The one explicit unitarity gate of the package; a NaN residual fails it.
    """
    a = as_complex(a)
    res = unitarity_residual(a)
    if not res <= tol:
        raise ValueError(f"{what} is not unitary: residual {res:.3e} exceeds {tol:.1e}")
    return a
