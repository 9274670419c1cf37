"""Magnetic potentials and the phase-twisted shift operators they induce.

A magnetic potential is an antisymmetric [-pi, pi]-valued function on pairs
of hypercube vertices.  The walk consumes only the reduced phase vector
(nu_0, ..., nu_n), where nu_j is the value the full function takes on the
pair ({j}, complement of {j}).  Each phase yields a shift involution

    Xi_j = exp(-i nu_j) a*_j + exp(i nu_j) a_j,

a self-adjoint unitary that moves a walker across edge direction j while
attaching a direction-dependent phase.  The family {Xi_j} commutes, and the
signed products built from it furnish an orthonormal eigenbasis of the
position space that simultaneously diagonalizes every Xi_j.

Phase convention: the basis vector of the empty set picks up exp(-i nu_j)
when pushed across direction j, and the occupied side picks up the
conjugate phase.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from ._linalg import max_abs, worst
from .fock import (EXACT_TOL, _check_subset, annihilation_operator, basis_state,
                   creation_operator, dimension, membership_signs)

__all__ = [
    "MagneticPotential",
    "FullPotentialTable",
    "null_potential",
    "random_potential",
    "reduce_potential",
    "magnetic_shift",
    "shift_product_action",
    "xi_hat",
    "xi_hat_vacuum_columns",
    "magnetic_basis_vector",
    "magnetic_basis_change",
    "EigenbasisReport",
    "eigenbasis_check",
]


@dataclass(frozen=True)
class MagneticPotential:
    """Reduced phase vector (nu_0, ..., nu_n), each entry in [-pi, pi]."""

    phases: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.phases, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("phases must be a nonempty 1-d array")
        outside = ~(np.abs(arr) <= np.pi)  # also flags NaN
        if outside.any():
            bad = int(np.argmax(outside))
            raise ValueError(f"phase nu_{bad}={arr[bad]} outside [-pi, pi]")
        arr.flags.writeable = False
        object.__setattr__(self, "phases", arr)

    @property
    def n(self) -> int:
        return self.phases.size - 1

    def is_null(self) -> bool:
        return bool(np.all(self.phases == 0.0))


def null_potential(n: int) -> MagneticPotential:
    """The all-zero phase vector on {0, ..., n}."""
    dimension(n)  # rejects a negative n
    return MagneticPotential(np.zeros(n + 1))


def random_potential(n: int, rng: np.random.Generator) -> MagneticPotential:
    """Phases drawn i.i.d. uniform on [-pi, pi]."""
    dimension(n)  # rejects a negative n
    return MagneticPotential(rng.uniform(-np.pi, np.pi, n + 1))


@dataclass(frozen=True)
class FullPotentialTable:
    """Antisymmetric vertex-pair phase table; unspecified pairs are zero.

    Stored sparsely as a mapping (sigma, tau) -> value over bitmask pairs.
    Antisymmetry (value(sigma, tau) = -value(tau, sigma), zero diagonal) is
    validated at construction, so a nonzero entry must be accompanied by its
    negated mirror.
    """

    n: int
    values: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        dim = dimension(self.n)  # rejects a negative n
        table = dict(self.values)
        for (sigma, tau), value in table.items():
            if not (0 <= sigma < dim and 0 <= tau < dim):
                raise ValueError(f"pair ({sigma}, {tau}) out of range for n={self.n}")
            if not abs(value) <= math.pi:  # also rejects NaN
                raise ValueError(f"value {value} at ({sigma}, {tau}) outside [-pi, pi]")
            mirror = table.get((tau, sigma), 0.0)
            if mirror != -value:
                raise ValueError(
                    f"antisymmetry violated at pair ({sigma}, {tau}): "
                    f"{value} vs {mirror}"
                )
        object.__setattr__(self, "values", table)

    def lookup(self, sigma: int, tau: int) -> float:
        return self.values.get((sigma, tau), 0.0)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FullPotentialTable":
        """Build from {"n": int, "entries": [{"sigma", "tau", "value"}, ...]}."""
        if "n" not in doc:
            raise ValueError("potential table document lacks required key 'n'")
        table: dict[tuple[int, int], float] = {}
        for entry in doc.get("entries", []):
            key = (int(entry["sigma"]), int(entry["tau"]))
            if key in table:
                raise ValueError(f"duplicate entry for pair {key}")
            table[key] = float(entry["value"])
        return cls(n=int(doc["n"]), values=table)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FullPotentialTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def reduce_potential(full: FullPotentialTable) -> MagneticPotential:
    """Extract the phase vector: nu_j = table({j}, complement of {j})."""
    n = full.n
    all_modes = dimension(n) - 1
    phases = [full.lookup(1 << j, all_modes ^ (1 << j)) for j in range(n + 1)]
    return MagneticPotential(np.array(phases))


def _check_nu_n(nu: MagneticPotential, n: int) -> None:
    if nu.n != n:
        raise ValueError(f"potential has n={nu.n}, expected n={n}")


def magnetic_shift(n: int, j: int, nu: MagneticPotential) -> sp.csr_matrix:
    """Shift involution Xi_j = exp(-i nu_j) a*_j + exp(i nu_j) a_j for edge
    direction j under the given potential.

    Column sigma carries exp(i nu_j) at row sigma minus {j} when j is
    present, and exp(-i nu_j) at row sigma plus {j} otherwise.  The result
    is self-adjoint and squares to the identity.
    """
    _check_nu_n(nu, n)
    if not 0 <= j <= n:
        raise ValueError(f"direction j={j} out of range 0..{n}")
    phase = nu.phases[j]
    return (np.exp(-1j * phase) * creation_operator(n, j)
            + np.exp(1j * phase) * annihilation_operator(n, j))


def shift_product_action(
    gamma: int, nu: MagneticPotential
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the product of shifts over directions in gamma to two states.

    Returns the images of the empty-set basis vector and of the gamma basis
    vector under prod_{j in gamma} Xi_j (identity for empty gamma).  The
    images are computed by actually applying the shift matrices; they equal
    exp(-i sum nu_j) and exp(+i sum nu_j) times the swapped basis vectors.
    """
    n = nu.n
    vac = basis_state(n, 0)
    target = basis_state(n, gamma)
    for j in range(n + 1):
        if (gamma >> j) & 1:
            shift = magnetic_shift(n, j, nu)
            vac = shift @ vac
            target = shift @ target
    return vac, target


def xi_hat(sigma: int, nu: MagneticPotential) -> np.ndarray:
    """Signed product operator prod_j (I + s_j Xi_j) with s_j = +-1 by sigma.

    Self-adjoint; annihilated by Xi_j - s_j for every j, so its range is the
    joint eigenspace with sign pattern s.  Products for distinct sigma
    multiply to zero.
    """
    n = nu.n
    dim = dimension(n)
    signs = membership_signs(n, sigma)
    result = np.eye(dim, dtype=complex)
    for j in range(n + 1):
        factor = sp.identity(dim, dtype=complex, format="csr") + signs[j] * magnetic_shift(n, j, nu)
        result = factor @ result
    return result


def xi_hat_vacuum_columns(nu: MagneticPotential) -> np.ndarray:
    """Every signed product applied to the vacuum: column sigma is
    ``xi_hat(sigma, nu) @ basis_state(n, 0)``.

    The factors (I + s_j Xi_j) are applied in order to one block that holds
    the vacuum in every column, each column with the signs of its sigma, so
    n + 1 sparse products stand in for 2^(n+1) dense operators.
    """
    return _vacuum_columns(nu.n, (magnetic_shift(nu.n, j, nu) for j in range(nu.n + 1)))


def _direction_signs(n: int, j: int) -> np.ndarray:
    """Entry j of ``membership_signs`` for every sigma: +1.0 where j is in sigma."""
    return 2.0 * ((np.arange(dimension(n)) >> j) & 1) - 1.0


def _vacuum_columns(n: int, shifts) -> np.ndarray:
    """``xi_hat_vacuum_columns`` from the shifts Xi_0, ..., Xi_n in order."""
    dim = dimension(n)
    block = np.zeros((dim, dim), dtype=complex)
    block[0] = 1.0
    for j, xi in enumerate(shifts):
        block = block + (xi @ block) * _direction_signs(n, j)
    return block


def _phase_sums(nu: MagneticPotential) -> np.ndarray:
    """sum of nu_j over the members of gamma, for every subset mask gamma."""
    dim = dimension(nu.n)
    gammas = np.arange(dim)
    sums = np.zeros(dim)
    for j in range(nu.n + 1):
        sums[(gammas >> j) & 1 == 1] += nu.phases[j]
    return sums


def _gauge(nu: MagneticPotential) -> np.ndarray:
    """The gauge diagonal e^{-i Phi(gamma)} / sqrt(N) for every subset mask
    gamma, with Phi(gamma) the sum of nu_j over gamma and N = 2^(n+1): the
    eigenbasis vectors up to their signs."""
    return np.exp(-1j * _phase_sums(nu)) / math.sqrt(dimension(nu.n))


def _basis_columns(nu: MagneticPotential, sigmas) -> np.ndarray:
    """``magnetic_basis_vector`` of each mask in ``sigmas`` (an int or a 1-d
    integer array) as a column, without its range check."""
    dim = dimension(nu.n)
    gammas = np.arange(dim)[:, None]
    flips = np.bitwise_count(gammas & ~sigmas & (dim - 1))
    signs = np.where(flips % 2 == 1, -1.0, 1.0)
    return signs * _gauge(nu)[:, None]


def magnetic_basis_vector(sigma: int, nu: MagneticPotential) -> np.ndarray:
    """Closed-form eigenbasis vector for the sign pattern of sigma.

    The component on basis vector gamma is
    (-1)^(#(gamma \\ sigma)) exp(-i sum_{j in gamma} nu_j) / sqrt(2^(n+1)),
    which matches the normalized product construction
    xi_hat(sigma, nu) @ vacuum / sqrt(2^(n+1)).
    """
    _check_subset(nu.n, sigma)
    return _basis_columns(nu, sigma)[:, 0]


def magnetic_basis_change(nu: MagneticPotential) -> np.ndarray:
    """Unitary whose column sigma is the eigenbasis vector of sigma.

    Conjugating any shift Xi_j by this matrix diagonalizes it with entries
    +-1 according to membership of j in the column index.
    """
    return _basis_columns(nu, np.arange(dimension(nu.n)))


def _basis_adjoint(nu: MagneticPotential) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> B* x for B = ``magnetic_basis_change(nu)`` and x of shape
    (N, k), N = 2^(n+1), which holds no N x N array.

    B = D H, where H is the Walsh-Hadamard matrix, H[gamma, sigma] =
    (-1)^|gamma & sigma|, and D = diag((-1)^|gamma|) times the gauge
    diagonal e^{-i Phi(gamma)} / sqrt(N) of ``_gauge``: the sign of
    ``_basis_columns`` is (-1)^|gamma \\ sigma| = (-1)^|gamma| (-1)^|gamma &
    sigma|.  So B* x = H (conj(D) x), a fast Walsh-Hadamard transform (Fino
    and Algazi, IEEE Trans. Computers 1976).  It runs in two Kronecker
    factors, H = H_P (x) H_Q with Q = 2^((n+1) // 2) and P = N / Q: one real
    product per factor on the real and imaginary parts at once, N (P + Q)
    multiply-adds per column instead of N^2.  The diagonal and both factors
    are formed once, for every x the map is given.
    """
    dim = dimension(nu.n)
    sign = np.where(np.bitwise_count(np.arange(dim)) % 2 == 1, -1.0, 1.0)
    scale = (sign * _gauge(nu).conj())[:, None]
    inner = 1 << ((nu.n + 1) // 2)
    outer = dim // inner
    inner_factor, outer_factor = _hadamard(inner), _hadamard(outer)

    def adjoint(x: np.ndarray) -> np.ndarray:
        # real and imaginary parts side by side: (N, 2k) floats, as (P, Q,
        # 2k).  Each factor runs as one small product per index of the
        # other axis, which OpenBLAS keeps on the calling thread at the
        # sizes of verify-all (one product of the whole would wake its
        # thread pool, whose buffers add to the peak RSS).
        parts = np.matmul(inner_factor, (x * scale).view(float).reshape(outer, inner, -1))
        out = np.empty_like(parts)
        np.matmul(outer_factor, parts.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
        return out.reshape(dim, -1).view(complex)

    return adjoint


def _hadamard(size: int) -> np.ndarray:
    """The size x size Walsh-Hadamard matrix, (-1)^|i & j|, for a power of
    two ``size``."""
    indices = np.arange(size)
    return np.where(np.bitwise_count(indices[:, None] & indices) % 2 == 1, -1.0, 1.0)


@dataclass(frozen=True)
class EigenbasisReport:
    """Max-norm residuals, over all directions j, of the shift involutions
    Xi_j and of their closed-form joint eigenbasis B."""

    square_residual: float  # |Xi_j Xi_j - I|
    self_adjoint_residual: float  # |Xi_j - Xi_j*|
    gram_residual: float  # |B* B - I|
    eigen_relation_residual: float  # |Xi_j B - B S_j|, S_j = diag of the signs of j
    construction_agreement: float  # |xi_hat_vacuum_columns / sqrt(N) - B|

    def involution_passed(self) -> bool:
        return self.square_residual <= EXACT_TOL and self.self_adjoint_residual <= EXACT_TOL

    def eigenbasis_passed(self, tol: float) -> bool:
        return (
            self.gram_residual <= tol
            and self.eigen_relation_residual <= tol
            and self.construction_agreement <= EXACT_TOL
        )


def eigenbasis_check(nu: MagneticPotential) -> EigenbasisReport:
    """Check that each Xi_j is a self-adjoint involution diagonalized by the
    closed-form eigenbasis, and that the basis matches the product
    construction.  Each shift is built once; a NaN residual stays NaN."""
    n = nu.n
    dim = dimension(n)
    eye = sp.identity(dim, dtype=complex, format="csr")
    basis = magnetic_basis_change(nu)
    shifts = [magnetic_shift(n, j, nu) for j in range(n + 1)]

    return EigenbasisReport(
        square_residual=worst(max_abs(xi @ xi - eye) for xi in shifts),
        self_adjoint_residual=worst(max_abs(xi - xi.conj().T) for xi in shifts),
        gram_residual=max_abs(basis.conj().T @ basis - np.eye(dim)),
        eigen_relation_residual=worst(
            max_abs(xi @ basis - basis * _direction_signs(n, j)) for j, xi in enumerate(shifts)
        ),
        construction_agreement=max_abs(_vacuum_columns(n, shifts) / math.sqrt(dim) - basis),
    )
