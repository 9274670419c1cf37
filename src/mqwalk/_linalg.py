"""Small linear-algebra helpers shared across modules.

Matrices are complex ndarrays or scipy sparse matrices; a sparse input stays
sparse, so a residual of a matrix with a few entries per row costs only the
products of those entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["as_complex", "max_abs", "unitarity_residual", "require_unitary"]


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
    """max(|A*A - I|, |AA* - I|) entrywise, for an ndarray or a sparse matrix."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    side = a.shape[0]
    eye = sp.identity(side, dtype=complex, format="csr") if sp.issparse(a) else np.eye(side)
    adj = a.conj().T
    # np.maximum, unlike max, keeps a NaN from either side
    return float(np.maximum(max_abs(adj @ a - eye), max_abs(a @ adj - eye)))


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
