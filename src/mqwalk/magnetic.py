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
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .fock import basis_state, dimension, membership_signs

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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return MagneticPotential(np.zeros(n + 1))


def random_potential(n: int, rng: np.random.Generator) -> MagneticPotential:
    """Phases drawn i.i.d. uniform on [-pi, pi]."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
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
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        dim = dimension(self.n)
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
    """Shift involution for edge direction j under the given potential.

    Column sigma carries exp(i nu_j) at row sigma minus {j} when j is
    present, and exp(-i nu_j) at row sigma plus {j} otherwise.  The result
    is self-adjoint and squares to the identity.
    """
    _check_nu_n(nu, n)
    if not 0 <= j <= n:
        raise ValueError(f"direction j={j} out of range 0..{n}")
    dim = dimension(n)
    cols = np.arange(dim)
    rows = cols ^ (1 << j)
    occupied = ((cols >> j) & 1).astype(bool)
    phase = nu.phases[j]
    data = np.where(occupied, np.exp(1j * phase), np.exp(-1j * phase))
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


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
    n = nu.n
    dim = dimension(n)
    sigmas = np.arange(dim)
    block = np.zeros((dim, dim), dtype=complex)
    block[0] = 1.0
    for j in range(n + 1):
        signs = 2.0 * ((sigmas >> j) & 1) - 1.0  # membership_signs of every sigma
        block = block + (magnetic_shift(n, j, nu) @ block) * signs
    return block


def _phase_sums(nu: MagneticPotential) -> np.ndarray:
    """sum of nu_j over the members of gamma, for every subset mask gamma."""
    dim = dimension(nu.n)
    gammas = np.arange(dim)
    sums = np.zeros(dim)
    for j in range(nu.n + 1):
        sums[(gammas >> j) & 1 == 1] += nu.phases[j]
    return sums


def magnetic_basis_vector(sigma: int, nu: MagneticPotential) -> np.ndarray:
    """Closed-form eigenbasis vector for the sign pattern of sigma.

    The component on basis vector gamma is
    (-1)^(#(gamma \\ sigma)) exp(-i sum_{j in gamma} nu_j) / sqrt(2^(n+1)),
    which matches the normalized product construction
    xi_hat(sigma, nu) @ vacuum / sqrt(2^(n+1)).
    """
    n = nu.n
    dim = dimension(n)
    if not 0 <= sigma < dim:
        raise ValueError(f"sigma={sigma} is not a subset mask of {{0,...,{n}}}")
    gammas = np.arange(dim)
    flips = np.bitwise_count(gammas & ~sigma & (dim - 1))
    signs = np.where(flips % 2 == 1, -1.0, 1.0)
    return signs * np.exp(-1j * _phase_sums(nu)) / math.sqrt(dim)


def magnetic_basis_change(nu: MagneticPotential) -> np.ndarray:
    """Unitary whose column sigma is the eigenbasis vector of sigma.

    Conjugating any shift Xi_j by this matrix diagonalizes it with entries
    +-1 according to membership of j in the column index.
    """
    dim = dimension(nu.n)
    indices = np.arange(dim)
    flips = np.bitwise_count(indices[:, None] & ~indices[None, :] & (dim - 1))
    signs = np.where(flips % 2 == 1, -1.0, 1.0)
    column = np.exp(-1j * _phase_sums(nu)) / math.sqrt(dim)
    return signs * column[:, None]
