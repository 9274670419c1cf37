"""Bernoulli Fock space on the subsets of {0, ..., n}.

The position space of the walk is the 2^(n+1)-dimensional Hilbert space
spanned by basis vectors indexed by subsets sigma of {0, ..., n}.  A subset
is encoded as an (n+1)-bit integer mask (bit j set iff j is in sigma), and
the basis vector of sigma occupies column number ``mask(sigma)``; the empty
set is column 0.  Under this ordering the ladder operators are
2^n-sparse bit-flip matrices with exact 0/1 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import max_abs

__all__ = [
    "FockSpace",
    "CarReport",
    "dimension",
    "subset_size",
    "is_adjacent",
    "membership_signs",
    "basis_state",
    "annihilation_operator",
    "creation_operator",
    "verify_car",
]


def dimension(n: int) -> int:
    """Dimension 2^(n+1) of the space for subsets of {0, ..., n}."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return 1 << (n + 1)


def subset_size(sigma: int) -> int:
    """Number of elements of the subset encoded by the mask."""
    return int(sigma).bit_count()


def is_adjacent(sigma: int, tau: int) -> bool:
    """Hypercube adjacency: the symmetric difference has exactly one element."""
    return (sigma ^ tau).bit_count() == 1


def _check_subset(n: int, sigma: int, name: str = "sigma") -> None:
    if not 0 <= sigma < dimension(n):
        raise ValueError(f"{name}={sigma} is not a subset mask of {{0,...,{n}}}")


def _check_mode(n: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"mode index k={k} out of range 0..{n}")


def membership_signs(n: int, sigma: int) -> np.ndarray:
    """Signs (+1 if j in sigma else -1) for j = 0, ..., n."""
    _check_subset(n, sigma)
    bits = (sigma >> np.arange(n + 1)) & 1
    return 2.0 * bits - 1.0


def basis_state(n: int, sigma: int) -> np.ndarray:
    """Unit coordinate vector of the basis element indexed by sigma."""
    _check_subset(n, sigma)
    vec = np.zeros(dimension(n), dtype=complex)
    vec[sigma] = 1.0
    return vec


def annihilation_operator(n: int, k: int) -> sp.csr_matrix:
    """Annihilation operator for mode k on the subset basis.

    Column sigma carries a single entry 1 at row sigma \\ {k} when k is in
    sigma, and is zero otherwise; exactly 2^n entries in total.  Entries are
    exact 0/1, no rounding is introduced at construction.
    """
    _check_mode(n, k)
    dim = dimension(n)
    cols = np.arange(dim)
    cols = cols[(cols >> k) & 1 == 1]
    rows = cols ^ (1 << k)
    data = np.ones(cols.size, dtype=complex)
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def creation_operator(n: int, k: int) -> sp.csr_matrix:
    """Creation operator for mode k; the adjoint of the annihilation operator.

    Column sigma maps to sigma united with {k} when k is absent, else zero.
    """
    _check_mode(n, k)
    dim = dimension(n)
    cols = np.arange(dim)
    cols = cols[(cols >> k) & 1 == 0]
    rows = cols | (1 << k)
    data = np.ones(cols.size, dtype=complex)
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


@dataclass(frozen=True)
class FockSpace:
    """The 2^(n+1)-dimensional position space for a fixed n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")

    @property
    def dim(self) -> int:
        return dimension(self.n)

    def basis_state(self, sigma: int) -> np.ndarray:
        return basis_state(self.n, sigma)

    def annihilation(self, k: int) -> sp.csr_matrix:
        return annihilation_operator(self.n, k)

    def creation(self, k: int) -> sp.csr_matrix:
        return creation_operator(self.n, k)


@dataclass(frozen=True)
class CarReport:
    """Max-norm residuals of the ladder-operator algebra at a given n.

    The commutator fields range over all ordered pairs j != k; the square
    and identity fields range over all single modes j.
    """

    n: int
    annihilation_commutator: float
    creation_commutator: float
    mixed_commutator: float
    annihilation_square: float
    creation_square: float
    car_identity: float

    @property
    def max_residual(self) -> float:
        # np.max, unlike the builtin max, keeps a NaN residual
        residuals = [
            self.annihilation_commutator,
            self.creation_commutator,
            self.mixed_commutator,
            self.annihilation_square,
            self.creation_square,
            self.car_identity,
        ]
        return float(np.max(residuals))

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_residual <= tol


def verify_car(n: int) -> CarReport:
    """Check the equal-time anticommutation algebra of the ladder operators.

    Residuals are computed with sparse products: pairwise commutators of the
    annihilators, of the creators, and of the mixed pair (j != k); the
    squares of each annihilator/creator; and the per-mode identity
    a*_j a_j + a_j a*_j - I.  All six are exactly zero in exact arithmetic.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    dim = dimension(n)
    ann = [annihilation_operator(n, k) for k in range(n + 1)]
    cre = [creation_operator(n, k) for k in range(n + 1)]
    eye = sp.identity(dim, dtype=complex, format="csr")

    ann_comm = creat_comm = mixed_comm = 0.0
    ann_sq = cre_sq = identity_res = 0.0
    # np.maximum, unlike max, keeps a NaN residual
    for j in range(n + 1):
        ann_sq = np.maximum(ann_sq, max_abs(ann[j] @ ann[j]))
        cre_sq = np.maximum(cre_sq, max_abs(cre[j] @ cre[j]))
        identity_res = np.maximum(identity_res, max_abs(cre[j] @ ann[j] + ann[j] @ cre[j] - eye))
        for k in range(n + 1):
            if j == k:
                continue
            ann_comm = np.maximum(ann_comm, max_abs(ann[j] @ ann[k] - ann[k] @ ann[j]))
            creat_comm = np.maximum(creat_comm, max_abs(cre[j] @ cre[k] - cre[k] @ cre[j]))
            mixed_comm = np.maximum(mixed_comm, max_abs(cre[j] @ ann[k] - ann[k] @ cre[j]))

    return CarReport(
        n=n,
        annihilation_commutator=float(ann_comm),
        creation_commutator=float(creat_comm),
        mixed_commutator=float(mixed_comm),
        annihilation_square=float(ann_sq),
        creation_square=float(cre_sq),
        car_identity=float(identity_res),
    )
