"""Coin operator systems on the internal (coin) space.

A coin system for walk order n is a family of n+1 operators C_0, ..., C_n
on a d-dimensional space, d >= n+1, whose pairwise products C*_j C_k and
C_j C*_k vanish for j != k and whose sum S is unitary.  Every such family
has the normal form C_j = S P_j with orthogonal projections P_j summing to
the identity, so the constructors here build coins by masking columns of a
unitary with a partition of the coordinate indices.

The signed sums U_sigma = sum_j s_j C_j (s_j = +1 if j in sigma, else -1)
are unitary for every subset sigma and carry the walk's entire spectrum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._linalg import max_abs, require_unitary, unitarity_residual
from .fock import dimension, membership_signs

__all__ = [
    "CoinSystem",
    "CoinValidationReport",
    "validate_coin_system",
    "coin_from_unitary_partition",
    "hadamard_partition_coin_system",
    "grover_coin_system",
    "random_coin_system",
    "coin_sum",
    "algebraic_sum",
]

DEFAULT_COIN_TOL = 1e-10


@dataclass(frozen=True)
class CoinSystem:
    """Immutable family of n+1 coin operators on a d-dimensional space."""

    ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("a coin system needs at least one operator")
        mats = []
        d = None
        for idx, op in enumerate(self.ops):
            mat = np.array(op, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"coin operator {idx} is not square: shape {mat.shape}")
            if d is None:
                d = mat.shape[0]
            elif mat.shape[0] != d:
                raise ValueError(
                    f"coin operator {idx} has dimension {mat.shape[0]}, expected {d}"
                )
            mat.flags.writeable = False
            mats.append(mat)
        n = len(mats) - 1
        if d < n + 1:
            raise ValueError(f"coin dimension d={d} below the required n+1={n + 1}")
        object.__setattr__(self, "ops", tuple(mats))

    @property
    def n(self) -> int:
        return len(self.ops) - 1

    @property
    def d(self) -> int:
        return self.ops[0].shape[0]

    def to_json_dict(self) -> dict:
        """Serialize as flat row-major [re, im] pairs per operator."""
        return {
            "n": self.n,
            "d": self.d,
            "ops": [
                [[float(z.real), float(z.imag)] for z in op.ravel()]
                for op in self.ops
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict, tol: float = DEFAULT_COIN_TOL) -> "CoinSystem":
        """Deserialize and re-validate; raises if the loaded system is invalid."""
        for key in ("n", "d", "ops"):
            if key not in doc:
                raise ValueError(f"coin document lacks required key '{key}'")
        n, d = int(doc["n"]), int(doc["d"])
        raw = doc["ops"]
        if len(raw) != n + 1:
            raise ValueError(f"expected {n + 1} operators, found {len(raw)}")
        ops = []
        for flat in raw:
            if len(flat) != d * d:
                raise ValueError(f"operator needs {d * d} entries, found {len(flat)}")
            mat = np.array([complex(re, im) for re, im in flat]).reshape(d, d)
            ops.append(mat)
        cs = cls(tuple(ops))
        report = validate_coin_system(cs, tol=tol)
        if not report.passed(tol):
            raise ValueError(
                f"loaded coin system is invalid: max residual {report.max_residual:.3e}"
            )
        return cs

    @classmethod
    def from_json_file(cls, path: str | Path, tol: float = DEFAULT_COIN_TOL) -> "CoinSystem":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh), tol=tol)


@dataclass(frozen=True)
class CoinValidationReport:
    """Residuals of the defining coin-system identities."""

    n: int
    d: int
    mutual_annihilation: float
    sum_unitarity: float

    @property
    def max_residual(self) -> float:
        # np.maximum, unlike max, keeps a NaN, so a non-finite coin fails
        return float(np.maximum(self.mutual_annihilation, self.sum_unitarity))

    def passed(self, tol: float = DEFAULT_COIN_TOL) -> bool:
        return self.max_residual <= tol


def validate_coin_system(cs: CoinSystem, tol: float = DEFAULT_COIN_TOL) -> CoinValidationReport:
    """Residuals of mutual annihilation (j != k) and unitarity of the sum."""
    mutual = 0.0
    for j in range(cs.n + 1):
        for k in range(cs.n + 1):
            if j == k:
                continue
            # np.maximum, unlike max, keeps a NaN residual
            mutual = float(np.maximum(mutual, max_abs(cs.ops[j].conj().T @ cs.ops[k])))
            mutual = float(np.maximum(mutual, max_abs(cs.ops[j] @ cs.ops[k].conj().T)))
    return CoinValidationReport(
        n=cs.n,
        d=cs.d,
        mutual_annihilation=mutual,
        sum_unitarity=unitarity_residual(coin_sum(cs)),
    )


def coin_from_unitary_partition(
    s: np.ndarray,
    partition: Sequence[Sequence[int]],
    tol: float = DEFAULT_COIN_TOL,
) -> CoinSystem:
    """Coin system C_j = S P_j from a unitary S and a coordinate partition.

    ``partition`` lists, per coin index j, the coordinate indices whose
    columns of S the operator C_j keeps; blocks must be disjoint, nonempty,
    and cover all d coordinates.
    """
    s = require_unitary(s, tol, what="coin sum S")
    d = s.shape[0]
    seen: set[int] = set()
    for block_idx, block in enumerate(partition):
        block = list(block)
        if not block:
            raise ValueError(f"partition block {block_idx} is empty")
        for idx in block:
            if not 0 <= idx < d:
                raise ValueError(f"partition index {idx} out of range 0..{d - 1}")
            if idx in seen:
                raise ValueError(f"partition index {idx} appears in two blocks")
            seen.add(idx)
    if len(seen) != d:
        missing = sorted(set(range(d)) - seen)
        raise ValueError(f"partition does not cover indices {missing}")

    ops = []
    for block in partition:
        mat = np.zeros((d, d), dtype=complex)
        cols = list(block)
        mat[:, cols] = s[:, cols]
        ops.append(mat)
    return CoinSystem(tuple(ops))


def hadamard_partition_coin_system() -> CoinSystem:
    """The n=1, d=2 system that splits the Hadamard matrix by columns."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return coin_from_unitary_partition(h, [[0], [1]])


def grover_coin_system(n: int) -> CoinSystem:
    """Singleton-partition split of the Grover diffusion matrix, d = n+1."""
    if n < 1:
        raise ValueError(f"grover coin needs n >= 1, got {n}")
    d = n + 1
    s = 2.0 / d * np.ones((d, d)) - np.eye(d)
    return coin_from_unitary_partition(s, [[j] for j in range(d)])


def random_coin_system(n: int, d: int, seed: int) -> CoinSystem:
    """Seeded random coin: Haar-like unitary with a random balanced partition."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if d < n + 1:
        raise ValueError(f"coin dimension d={d} below the required n+1={n + 1}")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    q = q * (diag.conj() / np.abs(diag))  # phase fix makes the draw Haar
    blocks = [list(map(int, b)) for b in np.array_split(rng.permutation(d), n + 1)]
    return coin_from_unitary_partition(q, blocks)


def coin_sum(cs: CoinSystem) -> np.ndarray:
    """The unitary sum S of all coin operators."""
    total = np.zeros((cs.d, cs.d), dtype=complex)
    for op in cs.ops:
        total = total + op
    return total


def algebraic_sum(cs: CoinSystem, sigma: int) -> np.ndarray:
    """Signed sum of the coins: +C_j for j in sigma, -C_j otherwise."""
    if not 0 <= sigma < dimension(cs.n):
        raise ValueError(f"sigma={sigma} is not a subset mask of {{0,...,{cs.n}}}")
    signs = membership_signs(cs.n, sigma)
    total = np.zeros((cs.d, cs.d), dtype=complex)
    for sign, op in zip(signs, cs.ops):
        total = total + sign * op
    return total
