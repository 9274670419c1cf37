"""Correctness checks on CLI reports, independent of the program's code.

Each check returns a list of problems; an empty list means the report
passed.  The walk is re-derived here from its definition,

    W = sum_j Xi_j (x) C_j,   Xi_j = exp(-i nu_j) a*_j + exp(i nu_j) a_j,

acting on position-major states psi[sigma, a] (vertex sigma is an
(n+1)-bit subset mask), and the coin-union spectrum is computed with
``numpy.linalg.eigvals`` on the d x d signed sums.  Only the inputs of a
task (its coin operators and phases) come from the benchmark's generator;
the one exception is the CLI's built-in random coin, which is an input the
program draws itself and is rebuilt in ``coin_ops`` from the task seed.
"""

from __future__ import annotations

import numpy as np

from inputs import Task

SIMULATE_TOL = 1e-10
SPECTRUM_TOL = 1e-8

# Residual fields of a verify-all report and the most each may read: the
# CLI's exact-identity tolerance (1e-12), its default --tol-construct
# (1e-10) and its default --tol-spectrum (1e-8).
VERIFY_LIMITS = {
    ("car", "max_residual"): 1e-12,
    ("coin", "mutual_annihilation"): 1e-10,
    ("coin", "sum_unitarity"): 1e-10,
    ("involution", "square_residual"): 1e-12,
    ("involution", "self_adjoint_residual"): 1e-12,
    ("eigenbasis", "gram_residual"): 1e-10,
    ("eigenbasis", "eigen_relation_residual"): 1e-10,
    ("eigenbasis", "construction_agreement"): 1e-12,
    ("intertwining", "max_vector_residual"): 1e-10,
    ("intertwining", "off_block_mass"): 1e-10,
    ("intertwining", "max_block_mismatch"): 1e-10,
    ("point_spectrum", "hausdorff_distance"): 1e-8,
    ("approximate_spectrum", "hausdorff_distance"): 1e-8,
    ("approximate_spectrum", "max_witness_residual"): 1e-8,
    ("spectral_stability", "max_pairwise_hausdorff"): 1e-8,
}
VERIFY_FLAGS = (
    ("point_spectrum", "multiset_passed"),
    ("approximate_spectrum", "matches_point_check"),
)
# the potential must move the operator by more than this for the
# stability check to mean anything (the CLI's operator_difference_floor)
OPERATOR_DIFFERENCE_FLOOR = 1e-6


def coin_ops(task: Task) -> tuple[np.ndarray, ...]:
    """Coin operators C_0..C_n of a task."""
    if task.coin_ops is not None:
        return task.coin_ops
    if task.coin == "grover":
        # the (n+1)-dim Grover matrix split by columns
        d = task.n + 1
        s = 2.0 / d * np.ones((d, d)) - np.eye(d)
        return tuple(s * (np.arange(d) == j) for j in range(d))
    if task.coin.startswith("random"):
        # The CLI seeds a built-in random coin with the first draw of the
        # task's generator, default_rng(--seed).integers(2**63).
        from mqwalk.coin import random_coin_system

        draw = int(np.random.default_rng(task.seed).integers(2**63))
        return random_coin_system(task.n, task.d, seed=draw).ops
    raise ValueError(f"no coin operators for coin '{task.coin}'")


class ReferenceWalk:
    """Matrix-free W = sum_j Xi_j (x) C_j from thin factors of the coins.

    ``(Xi_j (x) C_j) psi = Xi_j psi C_j^T``.  Each coin is factored as
    ``C_j = A_j B_j*`` from its SVD, truncated to its numerical rank, so
    ``psi C_j^T = (psi conj(B_j)) A_j^T`` and one step costs two
    (2^(n+1), d) x (d, r) products with r the total rank, plus a phased
    row permutation per direction.
    """

    def __init__(self, ops: tuple[np.ndarray, ...], nu: np.ndarray):
        self.n = len(ops) - 1
        self.d = ops[0].shape[0]
        self.vertices = 1 << (self.n + 1)
        rights, lefts, self.slices = [], [], []
        start = 0
        for op in ops:
            u, s, vh = np.linalg.svd(op)
            rank = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
            rights.append(vh[:rank].T)  # conj(B_j), with B_j = vh[:rank]*
            lefts.append((u[:, :rank] * s[:rank]).T)  # A_j^T
            self.slices.append(slice(start, start + rank))
            start += rank
        self.right = np.concatenate(rights, axis=1)
        self.left = np.concatenate(lefts, axis=0)
        sigma = np.arange(self.vertices)
        self.sources = [sigma ^ (1 << j) for j in range(self.n + 1)]
        # Row sigma receives from tau = sigma xor {j}: through a*_j (phase
        # exp(-i nu_j)) when j is in sigma, through a_j (exp(i nu_j)) otherwise.
        self.phases = [
            np.where((sigma >> j) & 1 == 1, np.exp(-1j * nu[j]), np.exp(1j * nu[j]))[:, None]
            for j in range(self.n + 1)
        ]

    def step(self, psi: np.ndarray) -> np.ndarray:
        y = psi @ self.right
        z = np.empty_like(y)
        for j, cols in enumerate(self.slices):
            z[:, cols] = y[self.sources[j], cols] * self.phases[j]
        return z @ self.left


def _distribution(psi: np.ndarray) -> np.ndarray:
    return (psi.real**2 + psi.imag**2).sum(axis=1)


def check_simulate(
    report: dict,
    ops: tuple[np.ndarray, ...],
    nu: np.ndarray,
    initial_sigma: int,
    steps: int,
    tol: float = SIMULATE_TOL,
) -> list[str]:
    """Distributions are probability rows; states match the reference walk.

    The walk starts from the flat coin superposition at ``initial_sigma``.
    """
    walk = ReferenceWalk(ops, nu)
    shape = (steps + 1, walk.vertices)
    dists = np.asarray(report.get("distributions", []), dtype=float)
    if dists.shape != shape:
        return [f"distributions have shape {dists.shape}, expected {shape}"]
    problems = []
    if report.get("final_t") != steps:
        problems.append(f"final_t is {report.get('final_t')}, expected {steps}")
    if (dists < 0).any():
        problems.append(f"{int((dists < 0).sum())} negative probabilities")
    worst_sum = float(np.abs(dists.sum(axis=1) - 1.0).max())
    if worst_sum > tol:
        problems.append(f"a distribution row sums to 1 only within {worst_sum:.3e}")

    final = np.asarray(report.get("final_state", []), dtype=float)
    if final.shape != (walk.vertices * walk.d, 2):
        return problems + [f"final_state has shape {final.shape}"]
    psi = np.zeros((walk.vertices, walk.d), dtype=complex)
    psi[initial_sigma, :] = 1.0 / np.sqrt(walk.d)
    worst_row = float(np.abs(_distribution(psi) - dists[0]).max())
    for t in range(1, steps + 1):
        psi = walk.step(psi)
        worst_row = max(worst_row, float(np.abs(_distribution(psi) - dists[t]).max()))
    if worst_row > tol:
        problems.append(f"distributions differ from the reference walk by {worst_row:.3e}")
    reported = (final[:, 0] + 1j * final[:, 1]).reshape(psi.shape)
    gap = float(np.linalg.norm(reported - psi))
    if gap > tol:
        problems.append(f"final state differs from the reference walk by {gap:.3e}")
    return problems


def coin_union(ops: tuple[np.ndarray, ...]) -> np.ndarray:
    """Eigenvalues of all 2^(n+1) signed sums sum_j s_j C_j, pooled."""
    stack = np.asarray(ops)
    n = stack.shape[0] - 1
    sigma = np.arange(1 << (n + 1))
    signs = np.where((sigma[:, None] >> np.arange(n + 1)[None, :]) & 1 == 1, 1.0, -1.0)
    sums = np.einsum("sj,jab->sab", signs, stack)
    return np.linalg.eigvals(sums).ravel()


def check_spectrum(
    report: dict,
    ops: tuple[np.ndarray, ...],
    nu: np.ndarray,
    tol: float = SPECTRUM_TOL,
) -> list[str]:
    """Unit-circle values whose multiplicities match the coin-union spectrum."""
    spec = report.get("spectrum", {})
    entries = spec.get("eigenvalues", [])
    if not entries:
        return ["the report lists no eigenvalues"]
    problems = []
    if spec.get("nu") != [float(p) for p in nu]:
        problems.append(f"report echoes nu={spec.get('nu')}, the task passed {list(nu)}")
    values = np.array([complex(e["re"], e["im"]) for e in entries])
    mults = np.array([int(e["mult"]) for e in entries])
    off_circle = float(np.abs(np.abs(values) - 1.0).max())
    if off_circle > tol:
        problems.append(f"an eigenvalue is {off_circle:.3e} off the unit circle")
    union = coin_union(ops)
    if mults.sum() != union.size:
        problems.append(f"multiplicities sum to {mults.sum()}, the walk side is {union.size}")
    dist = np.abs(values[:, None] - union[None, :])
    hausdorff = float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
    if hausdorff > tol:
        problems.append(f"Hausdorff distance to the coin-union spectrum is {hausdorff:.3e}")
    else:
        counts = np.bincount(dist.argmin(axis=0), minlength=values.size)
        wrong = np.nonzero(counts != mults)[0]
        if wrong.size:
            i = wrong[0]
            problems.append(
                f"{wrong.size} multiplicities differ from the coin union, "
                f"e.g. {values[i]:.6f}: reported {mults[i]}, union {counts[i]}"
            )
    return problems


def check_verify(report: dict, exit_code: int) -> list[str]:
    """Exit code 0, every check passed, every residual within its limit."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("passed") is not True:
        problems.append("the report does not pass")
    checks = report.get("checks", {})
    expected = {group for group, _ in VERIFY_LIMITS}
    if set(checks) != expected:
        problems.append(f"checks are {sorted(checks)}, expected {sorted(expected)}")
    for name, entry in sorted(checks.items()):
        if entry.get("passed") is not True:
            problems.append(f"check '{name}' did not pass")
    for (group, field), limit in VERIFY_LIMITS.items():
        value = checks.get(group, {}).get(field)
        if not isinstance(value, (int, float)) or not 0 <= value <= limit:
            problems.append(f"{group}.{field} = {value} is not within {limit:.0e}")
    for group, field in VERIFY_FLAGS:
        if checks.get(group, {}).get(field) is not True:
            problems.append(f"{group}.{field} is not true")
    moved = checks.get("spectral_stability", {}).get("max_operator_difference")
    if not isinstance(moved, (int, float)) or not moved > OPERATOR_DIFFERENCE_FLOOR:
        problems.append(f"potentials moved the operator by only {moved}")
    return problems


def check_identical(first: bytes, second: bytes) -> list[str]:
    """Two runs of one config wrote the same report bytes."""
    if first == second:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b), min(len(first), len(second)))
    return [f"reports of one config differ (lengths {len(first)} and {len(second)}, first difference at byte {at})"]
