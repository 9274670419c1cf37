"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

__all__ = ["max_abs", "unitarity_residual", "require_unitary"]


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm; 0.0 for empty arrays."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def unitarity_residual(a: np.ndarray) -> float:
    """max(|A*A - I|, |AA* - I|) entrywise."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    eye = np.eye(a.shape[0])
    # np.maximum, unlike max, keeps a NaN from either side
    return float(np.maximum(max_abs(a.conj().T @ a - eye), max_abs(a @ a.conj().T - eye)))


def require_unitary(a: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    """Return ``a`` as a complex ndarray, raising ``ValueError`` unless it is unitary.

    The one explicit unitarity gate of the package; a NaN residual fails it.
    """
    a = np.asarray(a, dtype=complex)
    res = unitarity_residual(a)
    if not res <= tol:
        raise ValueError(f"{what} is not unitary: residual {res:.3e} exceeds {tol:.1e}")
    return a
