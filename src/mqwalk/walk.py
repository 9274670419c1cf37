"""Evolution operator of the walk on the position-coin tensor space.

The operator is the sum over edge directions of (shift j) tensor (coin j).
States live on the tensor space with the position index major: the
composite index of (vertex sigma, coin axis a) is sigma * d + a, so the
dense representation is a literal Kronecker sum and the position marginal
is a contiguous reduction.

Stepping is matrix-free by default.  Each coin is factored once by SVD as
C_j = L_j R_j* (d x r_j factors, r_j its rank), and the factors are stacked
side by side into R = [R_0 ... R_n] and L = [L_0 ... L_n].  A step views
the state as a (2^(n+1), d) array psi, computes psi @ conj(R), swaps the
position rows of each column block j in pairs (sigma, sigma xor bit j)
with the direction phases attached, and multiplies by L^T.  For a valid
coin system the ranks sum to d, so one step costs two (2^(n+1), d) @ (d, d)
products plus one gather of 2^(n+1) d amplitudes; operators of higher total
rank stay exact and only widen the middle stage, up to (n+1) d.  The full
matrix is never formed by stepping; it is reserved for spectral work at
small n and kept as the literal Kronecker sum in CSR form, the kernel's
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import max_abs
from .coin import CoinSystem, algebraic_sum
from .fock import dimension
from .magnetic import (
    MagneticPotential,
    magnetic_basis_change,
    magnetic_basis_vector,
    magnetic_shift,
)

__all__ = [
    "CapacityError",
    "WalkOperator",
    "WalkState",
    "IntertwiningReport",
    "DENSE_N_LIMIT",
    "evolution_operator",
    "step",
    "evolve",
    "position_distribution",
    "intertwining_check",
    "vertex_state",
    "uniform_coin_vertex_state",
    "magnetic_eigenstate",
]

# Largest n for which the full matrix may be materialized; beyond this the
# matrix side exceeds ~22.5k at d = n+1 and dense eigensolves stop being
# desk-scale.
DENSE_N_LIMIT = 10

STATE_NORM_TOL = 1e-8

# Singular values of a coin below this fraction of the largest singular
# value of any coin are round-off of an exactly rank-deficient operator.
_RANK_TOL = 1e-13


class CapacityError(RuntimeError):
    """Raised when a dense materialization would exceed the size guard."""


class WalkOperator:
    """Unitary evolution operator for a potential and a coin system.

    Immutable after construction; precomputes the stacked coin factors and
    the per-block direction phases used by the matrix-free kernel.  The
    assembled matrix is built lazily in CSR form and cached, guarded to
    n <= DENSE_N_LIMIT; ``dense`` expands it.
    ``factor_width`` is the total rank of the coins, which is d for every
    valid coin system and sets the width of the kernel's middle stage.
    """

    def __init__(self, nu: MagneticPotential, cs: CoinSystem):
        if nu.n != cs.n:
            raise ValueError(f"potential has n={nu.n} but coin system has n={cs.n}")
        self.nu = nu
        self.cs = cs
        self.n = cs.n
        self.d = cs.d
        self.dim_fock = dimension(cs.n)
        self.dim = self.dim_fock * cs.d
        svds = [np.linalg.svd(op) for op in cs.ops]
        floor = _RANK_TOL * max(s[0] for _, s, _ in svds)
        # row blocks j of the stacked factors: R_j* and L_j^T
        rights, lefts = [], []
        # per direction j: first and past-last factor row, phase of a source
        # position with bit j set, phase of one with bit j clear
        self._blocks: list[tuple[int, int, complex, complex]] = []
        start = 0
        for j, (u, s, vh) in enumerate(svds):
            r = int(np.count_nonzero(s > floor))
            rights.append(vh[:r])
            lefts.append((u[:, :r] * s[:r]).T)
            phase = np.exp(1j * nu.phases[j])
            self._blocks.append((start, start + r, phase, phase.conjugate()))
            start += r
        self.factor_width = start
        self._right_adj = np.vstack(rights)
        self._left_t = np.vstack(lefts)
        self._sparse: sp.csr_matrix | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free product of the operator with a state vector.

        The middle stage works on the transposed (factor_width, 2^(n+1))
        array, so every block's pair swap along bit j is a strided copy of
        runs of 2^j amplitudes.
        """
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.dim,):
            raise ValueError(f"state has shape {vec.shape}, expected ({self.dim},)")
        psi = vec.reshape(self.dim_fock, self.d)
        x = self._right_adj @ psi.T  # (psi @ conj(R))^T
        y = np.empty_like(x)
        for j, (start, stop, up, down) in enumerate(self._blocks):
            shape = (stop - start, self.dim_fock >> (j + 1), 2, 1 << j)
            src = x[start:stop].reshape(shape)
            dst = y[start:stop].reshape(shape)
            # row sigma receives row sigma xor bit j, phased by the source's bit j
            np.multiply(src[:, :, 1], up, out=dst[:, :, 0])
            np.multiply(src[:, :, 0], down, out=dst[:, :, 1])
        return (y.T @ self._left_t).reshape(self.dim)

    def sparse(self) -> sp.csr_matrix:
        """Assembled matrix, the literal Kronecker sum in CSR form (d stored
        entries per row for the built-in coins); cached, read-only,
        n <= DENSE_N_LIMIT only."""
        if self._sparse is None:
            if self.n > DENSE_N_LIMIT:
                raise CapacityError(
                    f"dense walk matrix needs n <= {DENSE_N_LIMIT}, got n={self.n}; "
                    "use the matrix-free apply or the per-vertex coin spectra instead"
                )
            acc = None
            for j in range(self.n + 1):
                term = sp.kron(
                    magnetic_shift(self.n, j, self.nu),
                    sp.csr_matrix(self.cs.ops[j]),
                    format="csr",
                )
                acc = term if acc is None else acc + term
            for part in (acc.data, acc.indices, acc.indptr):
                part.flags.writeable = False
            self._sparse = acc
        return self._sparse

    def dense(self) -> np.ndarray:
        """Full matrix of the operator as an ndarray, from ``sparse``."""
        return self.sparse().toarray()


@dataclass(frozen=True)
class WalkState:
    """State vector on the tensor space together with its time index."""

    vector: np.ndarray
    t: int
    coin_dim: int

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=complex)
        if vec.ndim != 1:
            raise ValueError("state vector must be 1-d")
        if self.coin_dim < 1 or vec.size % self.coin_dim:
            raise ValueError(
                f"vector length {vec.size} incompatible with coin dimension {self.coin_dim}"
            )
        if self.t < 0:
            raise ValueError(f"time index must be nonnegative, got {self.t}")
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= STATE_NORM_TOL:  # also rejects a NaN norm
            raise ValueError(f"walk states are unit vectors; got norm {norm}")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @property
    def dim_fock(self) -> int:
        return self.vector.size // self.coin_dim


def evolution_operator(nu: MagneticPotential, cs: CoinSystem) -> WalkOperator:
    """Assemble the walk operator for the given potential and coin system."""
    return WalkOperator(nu, cs)


def step(op: WalkOperator, state: WalkState) -> WalkState:
    """Advance the walk by one time step."""
    if state.vector.size != op.dim or state.coin_dim != op.d:
        raise ValueError(
            f"state of length {state.vector.size} (d={state.coin_dim}) does not "
            f"match operator of dimension {op.dim} (d={op.d})"
        )
    return WalkState(op.apply(state.vector), state.t + 1, op.d)


def evolve(op: WalkOperator, initial: WalkState, t: int) -> WalkState:
    """Apply ``t`` steps to the initial state."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    state = initial
    for _ in range(t):
        state = step(op, state)
    return state


def position_distribution(state: WalkState) -> np.ndarray:
    """Probability of each vertex: coin-marginal of the squared amplitudes.

    Entry sigma of the returned array is the probability of finding the
    walker at vertex sigma; the entries sum to one for a unit state.
    """
    psi = state.vector.reshape(state.dim_fock, state.coin_dim)
    return (np.abs(psi) ** 2).sum(axis=1)


def vertex_state(n: int, d: int, sigma: int, coin_index: int = 0) -> WalkState:
    """Walker localized at vertex sigma with a single coin axis excited."""
    if not 0 <= sigma < dimension(n):
        raise ValueError(f"sigma={sigma} is not a subset mask of {{0,...,{n}}}")
    if not 0 <= coin_index < d:
        raise ValueError(f"coin index {coin_index} out of range 0..{d - 1}")
    vec = np.zeros(dimension(n) * d, dtype=complex)
    vec[sigma * d + coin_index] = 1.0
    return WalkState(vec, 0, d)


def uniform_coin_vertex_state(n: int, d: int, sigma: int) -> WalkState:
    """Walker localized at vertex sigma with the flat coin superposition."""
    if not 0 <= sigma < dimension(n):
        raise ValueError(f"sigma={sigma} is not a subset mask of {{0,...,{n}}}")
    psi = np.zeros((dimension(n), d), dtype=complex)
    psi[sigma, :] = 1.0 / np.sqrt(d)
    return WalkState(psi.reshape(-1), 0, d)


def magnetic_eigenstate(nu: MagneticPotential, sigma: int, u: np.ndarray) -> WalkState:
    """Product of the sigma eigenbasis vector with a unit coin vector u."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1:
        raise ValueError("coin vector must be 1-d")
    norm = np.linalg.norm(u)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"coin vector must be unit norm, got {norm}")
    zhat = magnetic_basis_vector(sigma, nu)
    return WalkState(np.kron(zhat, u), 0, u.size)


@dataclass(frozen=True)
class IntertwiningReport:
    """Residuals of the walk's reduction onto the per-vertex coin sums.

    ``max_vector_residual`` is the worst 2-norm defect of applying the walk
    to an eigenbasis-times-coin-axis product versus routing the coin vector
    through the signed coin sum of that vertex.  ``off_block_mass`` and
    ``max_block_mismatch`` measure the same reduction at the matrix level,
    after conjugating the dense operator by (basis change tensor identity).
    """

    n: int
    d: int
    max_vector_residual: float
    off_block_mass: float
    max_block_mismatch: float

    @property
    def max_residual(self) -> float:
        # np.max, unlike the builtin max, keeps a NaN residual
        residuals = [self.max_vector_residual, self.off_block_mass, self.max_block_mismatch]
        return float(np.max(residuals))

    def passed(self, tol: float = 1e-10) -> bool:
        return self.max_residual <= tol


def intertwining_check(op: WalkOperator) -> IntertwiningReport:
    """Verify that the walk acts as U_sigma on each eigenbasis fiber."""
    n, d = op.n, op.d
    sums = [algebraic_sum(op.cs, sigma) for sigma in range(op.dim_fock)]

    vec_residual = 0.0
    eye = np.eye(d, dtype=complex)
    for sigma in range(op.dim_fock):
        zhat = magnetic_basis_vector(sigma, op.nu)
        # row a: the eigenbasis vector times coin axis a, and its expected
        # image through the signed coin sum
        lifted = np.kron(zhat, eye)
        expected = np.kron(zhat, sums[sigma].T)
        for a in range(d):
            # np.maximum, unlike max, keeps a NaN residual
            vec_residual = float(
                np.maximum(vec_residual, np.linalg.norm(op.apply(lifted[a]) - expected[a]))
            )

    basis = magnetic_basis_change(op.nu)
    w4 = op.dense().reshape(op.dim_fock, d, op.dim_fock, d)
    rotated = np.einsum("gr,gasb,st->ratb", basis.conj(), w4, basis, optimize=True)
    del w4
    diagonal = np.arange(op.dim_fock)
    block_mismatch = max_abs(rotated[diagonal, :, diagonal, :] - np.stack(sums))
    rotated[diagonal, :, diagonal, :] = 0.0
    off_block = max_abs(rotated)

    return IntertwiningReport(
        n=n,
        d=d,
        max_vector_residual=vec_residual,
        off_block_mass=off_block,
        max_block_mismatch=block_mismatch,
    )
