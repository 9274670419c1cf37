"""Bernoulli Fock space on the subsets of {0, ..., n}.

The position space of the walk is the 2^(n+1)-dimensional Hilbert space
spanned by basis vectors indexed by subsets sigma of {0, ..., n}.  A subset
is encoded as an (n+1)-bit integer mask (bit j set iff j is in sigma), and
the basis vector of sigma occupies column number ``mask(sigma)``; the empty
set is column 0.  Under this ordering the ladder operators are
2^n-sparse bit-flip matrices with exact 0/1 entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import max_abs, worst

__all__ = [
    "CarReport",
    "dimension",
    "subset_size",
    "is_adjacent",
    "membership_signs",
    "basis_state",
    "annihilation_operator",
    "creation_operator",
    "verify_car",
    "EXACT_TOL",
]

# Construction-exact identities (the ladder algebra, the involutions, the
# two eigenbasis constructions) are held to this tolerance, tighter than the
# composite ones.
EXACT_TOL = 1e-12


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


def _check_subset(n: int, sigma: int) -> None:
    if not 0 <= sigma < dimension(n):
        raise ValueError(f"sigma={sigma} is not a subset mask of {{0,...,{n}}}")


def _check_mode(n: int, k: int) -> None:
    dimension(n)  # rejects a negative n before the range of k
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
class CarReport:
    """Max-norm residuals of the ladder-operator algebra at a given n.

    The commutator fields range over all pairs j != k; the square and
    identity fields range over all single modes j.
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
        return worst((
            self.annihilation_commutator,
            self.creation_commutator,
            self.mixed_commutator,
            self.annihilation_square,
            self.creation_square,
            self.car_identity,
        ))

    def passed(self, tol: float = EXACT_TOL) -> bool:
        return self.max_residual <= tol


def verify_car(n: int) -> CarReport:
    """Check the equal-time anticommutation algebra of the ladder operators.

    Residuals are computed with sparse products: pairwise commutators of the
    annihilators, of the creators, and of the mixed pair (j != k); the
    squares of each annihilator/creator; and the per-mode identity
    a*_j a_j + a_j a*_j - I.  All six are exactly zero in exact arithmetic.
    The commutators of one kind run over j < k only: [a_k, a_j] is -[a_j,
    a_k] entry by entry, as a floating-point difference is exactly
    antisymmetric, so its largest entry is the same.
    """
    dim = dimension(n)
    ann = [annihilation_operator(n, k) for k in range(n + 1)]
    cre = [creation_operator(n, k) for k in range(n + 1)]
    eye = sp.identity(dim, dtype=complex, format="csr")

    pairs = list(itertools.combinations(range(n + 1), 2))
    return CarReport(
        n=n,
        annihilation_commutator=worst(max_abs(ann[j] @ ann[k] - ann[k] @ ann[j]) for j, k in pairs),
        creation_commutator=worst(max_abs(cre[j] @ cre[k] - cre[k] @ cre[j]) for j, k in pairs),
        mixed_commutator=worst(
            max_abs(cre[j] @ ann[k] - ann[k] @ cre[j])
            for j, k in itertools.permutations(range(n + 1), 2)
        ),
        annihilation_square=worst(max_abs(op @ op) for op in ann),
        creation_square=worst(max_abs(op @ op) for op in cre),
        car_identity=worst(max_abs(c @ a + a @ c - eye) for a, c in zip(ann, cre)),
    )
