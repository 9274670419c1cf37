"""Small linear-algebra helpers shared across modules.

Matrices are complex ndarrays or scipy sparse matrices; a sparse input stays
sparse, so a residual of a matrix with a few entries per row costs only the
products of those entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["as_complex", "max_abs", "unitarity_residual", "require_unitary"]

# Rows per block of an ndarray's Gram matrices in ``unitarity_residual``:
# the temporaries are block x side, not side x side.
_GRAM_BLOCK = 64


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


def unitarity_residual(a) -> float:
    """max(|A*A - I|, |AA* - I|) entrywise, for an ndarray or a sparse matrix.

    An ndarray's products are formed ``_GRAM_BLOCK`` rows at a time, as the
    rows ``A[:, r]* A`` of A*A and the conjugate rows ``conj(A[r, :]) A^T``
    of AA*, so no side x side array is made; the conjugate has the moduli of
    AA* - I.
    """
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    side = a.shape[0]
    # np.maximum, unlike max, keeps a NaN from either side
    if sp.issparse(a):
        eye = sp.identity(side, dtype=complex, format="csr")
        adj = a.conj().T
        return float(np.maximum(max_abs(adj @ a - eye), max_abs(a @ adj - eye)))
    res = 0.0
    for lo in range(0, side, _GRAM_BLOCK):
        rows = slice(lo, lo + _GRAM_BLOCK)
        for gram in (a[:, rows].conj().T @ a, a[rows].conj() @ a.T):
            k = gram.shape[0]
            gram[np.arange(k), lo + np.arange(k)] -= 1
            res = np.maximum(res, max_abs(gram))
    return float(res)


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
