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
rank stay exact and only widen the middle stage, up to (n+1) d.  Both
products run in blocks of position rows that stay on the calling thread
(see ``_GEMM_MACS``).  Neither stepping nor ``intertwining_check`` forms
the full matrix; it is reserved for spectral work at small n and kept as
the literal Kronecker sum in CSR form, the kernel's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import CapacityError, max_abs, vector_norm, worst
from .coin import DEFAULT_COIN_TOL, CoinSystem, algebraic_sum
from .fock import _check_subset, dimension
from .magnetic import (
    MagneticPotential,
    _basis_adjoint,
    _basis_columns,
    magnetic_basis_vector,
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

# Multiply-adds per coin-factor product in ``apply``: a step multiplies
# blocks of position rows, each within the size that OpenBLAS runs on the
# calling thread.  Larger products go to its thread pool, whose threads spin
# between a step's calls and compete with the caller for a core, so a
# step's time would depend on whether the host has a core to spare.
_GEMM_MACS = 65536


class WalkOperator:
    """Unitary evolution operator for a potential and a coin system.

    Immutable after construction; precomputes the stacked coin factors and
    the per-block direction phases used by the matrix-free kernel.  The
    assembled matrix is built lazily in CSR form and cached, guarded to
    n <= DENSE_N_LIMIT; ``dense`` expands it for the tests.
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
        # a power of two, so the blocks tile the 2^(n+1) position rows
        rows = self.dim_fock
        while rows > 1 and rows * self.d * self.factor_width > _GEMM_MACS:
            rows //= 2
        self._gemm_rows = rows

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free product of the operator with a state vector, or with
        a (dim, m) block of m states as columns.

        The middle stage works on the transposed (factor_width, 2^(n+1))
        array, so every block's pair swap along bit j is a strided copy of
        runs of 2^j amplitudes.  A block keeps its m columns as a trailing
        axis through all three stages; its coin-factor products are one
        small (factor_width, d) by (d, m) product per position.
        """
        vec = np.asarray(vec, dtype=complex)
        if vec.ndim == 2 and vec.shape[0] == self.dim:
            return self._apply_block(vec)
        if vec.shape != (self.dim,):
            raise ValueError(
                f"state has shape {vec.shape}, expected ({self.dim},) or ({self.dim}, m)"
            )
        width, rows = self.factor_width, self._gemm_rows
        blocks = self.dim_fock // rows
        psi = vec.reshape(blocks, rows, self.d)
        # (psi @ conj(R))^T, one block of columns per product
        x = np.empty((width, self.dim_fock), dtype=complex)
        np.matmul(self._right_adj, psi.transpose(0, 2, 1),
                  out=x.reshape(width, blocks, rows).transpose(1, 0, 2))
        y = self._exchange(x)
        out = np.empty((blocks, rows, self.d), dtype=complex)
        np.matmul(y.reshape(width, blocks, rows).transpose(1, 2, 0), self._left_t, out=out)
        return out.reshape(self.dim)

    def _apply_block(self, vecs: np.ndarray) -> np.ndarray:
        """``apply`` of a (dim, m) block, all m columns in one pass."""
        m = vecs.shape[1]
        psi = vecs.reshape(self.dim_fock, self.d, m)
        x = np.empty((self.factor_width, self.dim_fock, m), dtype=complex)
        np.matmul(self._right_adj, psi, out=x.transpose(1, 0, 2))
        y = self._exchange(x)
        out = np.empty((self.dim_fock, self.d, m), dtype=complex)
        np.matmul(self._left_t.T, y.transpose(1, 0, 2), out=out)
        return out.reshape(self.dim, m)

    def _exchange(self, x: np.ndarray) -> np.ndarray:
        """Middle stage of ``apply`` on x of shape (factor_width, 2^(n+1))
        or (factor_width, 2^(n+1), m): within each block j of factor rows,
        position sigma receives position sigma xor bit j, phased by the
        source's bit j."""
        y = np.empty_like(x)
        tail = x.shape[2] if x.ndim == 3 else 1  # m for a block, 1 for one state
        for j, (start, stop, up, down) in enumerate(self._blocks):
            shape = (stop - start, self.dim_fock >> (j + 1), 2, tail << j)
            src = x[start:stop].reshape(shape)
            dst = y[start:stop].reshape(shape)
            np.multiply(src[:, :, 1], up, out=dst[:, :, 0])
            np.multiply(src[:, :, 0], down, out=dst[:, :, 1])
        return y

    def sparse(self) -> sp.csr_matrix:
        """Assembled matrix, the Kronecker sum sum_j Xi_j (x) C_j in CSR form
        (d stored entries per row for the built-in coins); cached, read-only,
        n <= DENSE_N_LIMIT only.

        It is built in one pass from index arithmetic: for each direction j,
        each vertex sigma and each nonzero C_j[a, b], the entry at row
        sigma d + a and column (sigma xor 2^j) d + b is the phase of Xi_j
        (``magnetic_shift``) times C_j[a, b].  The entries are laid out row
        by row, so the CSR arrays are formed in place, and distinct j reach
        distinct columns, so no two entries share a place: one sort of each
        row's columns gives the CSR form of ``sp.kron`` summed over j, bit
        for bit (the sum's signs of zero included).
        """
        if self._sparse is None:
            if self.n > DENSE_N_LIMIT:
                raise CapacityError(
                    f"dense walk matrix needs n <= {DENSE_N_LIMIT}, got n={self.n}; "
                    "use the matrix-free apply or the per-vertex coin spectra instead"
                )
            # the nonzeros C_j[a, b] in (a, j, b) order, the order of one
            # vertex's rows and then of each row's entries
            coins = np.stack(self.cs.ops, axis=1)
            coin_rows, coin_dirs, coin_cols = np.nonzero(coins)
            sigmas = np.arange(self.dim_fock, dtype=np.int32)[:, None]
            # Xi_j's column sigma xor 2^j is occupied where sigma is not
            phases = self.nu.phases
            shifts = np.where((sigmas >> np.arange(self.n + 1)) & 1,
                              np.exp(-1j * phases), np.exp(1j * phases))
            data = np.take(shifts, coin_dirs, axis=1)
            data *= coins[coin_rows, coin_dirs, coin_cols]
            if self.n:
                # the sum of the n + 1 terms adds each product to a zero,
                # which turns a -0.0 part of it into +0.0
                data += 0.0
            indices = sigmas ^ (1 << coin_dirs).astype(np.int32)
            indices *= self.d
            indices += coin_cols.astype(np.int32)
            lengths = np.tile(np.bincount(coin_rows, minlength=self.d), self.dim_fock)
            indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
            mat = sp.csr_matrix((data.ravel(), indices.ravel(), indptr),
                                shape=(self.dim, self.dim))
            mat.sort_indices()
            for part in (mat.data, mat.indices, mat.indptr):
                part.flags.writeable = False
            self._sparse = mat
        return self._sparse

    def dense(self) -> np.ndarray:
        """Full matrix of the operator as an ndarray, from ``sparse``: the
        tests' oracle; the library itself never expands the walk."""
        return self.sparse().toarray()


@dataclass(frozen=True)
class WalkState:
    """State vector on the tensor space together with its time index."""

    vector: np.ndarray
    t: int
    coin_dim: int

    def __post_init__(self) -> None:
        # a copy, so the state never aliases an array its caller holds
        self._own(np.array(self.vector, dtype=complex))

    @classmethod
    def _adopt(cls, vec: np.ndarray, t: int, coin_dim: int) -> WalkState:
        """State that takes ``vec``, a fresh complex array no one else holds, uncopied."""
        state = cls.__new__(cls)
        object.__setattr__(state, "t", t)
        object.__setattr__(state, "coin_dim", coin_dim)
        state._own(vec)
        return state

    def _own(self, vec: np.ndarray) -> None:
        """Check ``vec`` and make it this state's read-only vector."""
        if vec.ndim != 1:
            raise ValueError("state vector must be 1-d")
        if self.coin_dim < 1 or vec.size % self.coin_dim:
            raise ValueError(
                f"vector length {vec.size} incompatible with coin dimension {self.coin_dim}"
            )
        if self.t < 0:
            raise ValueError(f"time index must be nonnegative, got {self.t}")
        norm = vector_norm(vec)  # off the BLAS thread pool (see _GEMM_MACS)
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
    return WalkState._adopt(op.apply(state.vector), state.t + 1, op.d)


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
    _check_subset(n, sigma)
    if not 0 <= coin_index < d:
        raise ValueError(f"coin index {coin_index} out of range 0..{d - 1}")
    vec = np.zeros(dimension(n) * d, dtype=complex)
    vec[sigma * d + coin_index] = 1.0
    return WalkState(vec, 0, d)


def uniform_coin_vertex_state(n: int, d: int, sigma: int) -> WalkState:
    """Walker localized at vertex sigma with the flat coin superposition."""
    _check_subset(n, sigma)
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
    return WalkState(_lift(zhat[:, None], u[None, :, None])[:, 0], 0, u.size)


def _lift(fibers: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The lifts b_t (x) X_t of ``fibers`` (N, k), column t the position
    vector b_t, and ``blocks`` (k, d, c), side by side in the walk's
    position-major layout: the (N d, k c) array whose column (t, a) is
    b_t (x) X_t[:, a], entry (sigma d + x, t c + a) = b_t[sigma] X_t[x, a].

    Each entry is one product, as in ``np.kron``.
    """
    count, d, width = blocks.shape
    lifted = fibers[:, None, :, None] * blocks.transpose(1, 0, 2)
    return lifted.reshape(fibers.shape[0] * d, count * width)


@dataclass(frozen=True)
class IntertwiningReport:
    """Residuals of the walk's reduction onto the per-vertex coin sums.

    ``max_vector_residual`` is the worst 2-norm defect of applying the walk
    to an eigenbasis-times-coin-axis product versus routing the coin vector
    through the signed coin sum of that vertex.  ``off_block_mass`` and
    ``max_block_mismatch`` measure the same reduction at the matrix level:
    the largest entry of the off-diagonal blocks of (B* (x) I) W (B (x) I),
    with B the basis change and W the CSR matrix, and of its diagonal blocks
    minus the signed coin sums.
    """

    n: int
    d: int
    max_vector_residual: float
    off_block_mass: float
    max_block_mismatch: float

    @property
    def max_residual(self) -> float:
        return worst((self.max_vector_residual, self.off_block_mass, self.max_block_mismatch))

    def passed(self, tol: float = DEFAULT_COIN_TOL) -> bool:
        return self.max_residual <= tol


def intertwining_check(op: WalkOperator) -> IntertwiningReport:
    """Verify that the walk acts as U_tau on each eigenbasis fiber.

    One pass over chunks of vertices tau.  For each tau the lift X = b_tau
    (x) I_d and E = b_tau (x) U_tau are formed by ``_lift``, and the
    chunk's lifts side by side take one ``apply`` and one CSR product.  The
    kernel's defect W X - E gives the vector residual; the CSR matrix's
    defect rotated by (B* (x) I) is column block tau of (B* (x) I) W (B (x)
    I) - e_tau (x) U_tau, which gives the block residuals.  B* is applied
    as a fast Walsh-Hadamard transform (``magnetic._basis_adjoint``), so no
    2^(n+1) x 2^(n+1) basis is held.

    A chunk holds 1 + 2^(n+1) // (2 d^2) vertices.  Its working set, four
    (side, chunk * d) arrays while ``apply`` runs (the lifts and its three
    stages), then stays within what a rotation by the basis change as a
    matrix holds: that N x N matrix and its adjoint, N = 2^(n+1), and the
    four arrays of one vertex.  That is chunks of 2 vertices at side 896
    (n = 6, d = 7) and of 6 at n = 9, d = 10.
    """
    d, dim_fock = op.d, op.dim_fock
    mat = op.sparse()  # raises CapacityError before any vertex is applied
    eye = np.eye(d, dtype=complex)
    basis_adjoint = _basis_adjoint(op.nu)
    width = 1 + dim_fock // (2 * d * d)
    vec_residual = block_mismatch = off_block = 0.0
    for lo in range(0, dim_fock, width):
        taus = np.arange(lo, min(lo + width, dim_fock))
        count = taus.size
        # column (tau, a) holds the eigenbasis vector of tau times coin axis
        # a, and its expected image through the signed coin sum of tau
        fibers = _basis_columns(op.nu, taus)
        lift = _lift(fibers, np.broadcast_to(eye, (count, d, d)))
        image = op.apply(lift)
        defect = mat @ lift
        # each array is dropped once used, so that the arrays of apply set
        # the peak
        del lift
        expected = _lift(fibers, np.stack([algebraic_sum(op.cs, int(tau)) for tau in taus]))
        image -= expected
        defect -= expected
        del expected
        # np.maximum, unlike max, keeps a NaN residual
        vec_residual = np.maximum(vec_residual, np.linalg.norm(image, axis=0).max())
        del image
        # entry (rho, x, t, a) is entry (x, a) of the rotated (rho, tau_t) block
        rotated = basis_adjoint(defect.reshape(dim_fock, d * count * d)).reshape(
            dim_fock, d, count, d
        )
        own = (taus, slice(None), np.arange(count))
        block_mismatch = np.maximum(block_mismatch, max_abs(rotated[own]))
        rotated[own] = 0.0
        off_block = np.maximum(off_block, max_abs(rotated))
        del defect, rotated  # not held through the next chunk's apply

    return IntertwiningReport(
        n=op.n,
        d=d,
        max_vector_residual=float(vec_residual),
        off_block_mass=float(off_block),
        max_block_mismatch=float(block_mismatch),
    )
