"""Seeded inputs for the benchmark workloads.

Every input of a run derives from its workload seed: the per-task ``--seed``
flags, the magnetic phases (passed explicitly as ``--nu=...``, so the
benchmark knows them without reading the program's internals) and the
generated coin files.  The same workload seed gives the same tasks, flags
and file bytes.  A round is the fixed list of tasks a workload repeats; a
run attempts whole rounds, and round ``k`` draws fresh seeds from
``(workload seed, workload, k, slot)``.

Coin files use the program's JSON coin format: ``{"n", "d", "ops"}`` with
each operator stored as row-major ``[re, im]`` pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("simulate", "spectrum", "verify")

# simulate: n=13 with d=n+1=14 gives a walk side of 2^14 * 14 = 229,376.
SIMULATE_N = 13
SIMULATE_STEPS = 60
SIMULATE_INITIAL_SIGMA = 0
SIMULATE_TASKS = 6  # alternating built-in random coin and rotated coin file

# spectrum: sides on both sides of the program's 2048 pre-check limit.
SPECTRUM_RANDOM_N = 7  # side 2^8 * 8 = 2048, generic spectrum
SPECTRUM_GROVER_N = 7  # side 2048, degenerate spectrum
SPECTRUM_WIDE_N, SPECTRUM_WIDE_D = 6, 17  # side 2^7 * 17 = 2176
SPECTRUM_BLOCK_N, SPECTRUM_BLOCK_D = 6, 21  # side 2688, Grover split in 7 blocks of 3

# verify: Grover at n=6, side 2^7 * 7 = 896.
VERIFY_N = 6
VERIFY_SAMPLES = 5


@dataclass(frozen=True)
class Task:
    """One CLI invocation and what the checks need to know about it."""

    label: str
    argv: tuple[str, ...]
    n: int
    d: int
    seed: int
    nu: np.ndarray
    coin: str  # "random", "random:<d>", "grover" or "file"
    coin_ops: tuple[np.ndarray, ...] | None = None  # set for generated coin files

    @property
    def kind(self) -> str:
        """The CLI ``--task`` of this task."""
        return self.argv[self.argv.index("--task") + 1]

    @property
    def side(self) -> int:
        return (1 << (self.n + 1)) * self.d


def _seq(seed: int, workload: str, rnd: int, slot: int, part: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, WORKLOADS.index(workload), rnd, slot, part])


def task_seed(seed: int, workload: str, rnd: int, slot: int) -> int:
    """The ``--seed`` flag of one task."""
    return int(_seq(seed, workload, rnd, slot, 0).generate_state(1)[0])


def potential(seed: int, workload: str, rnd: int, slot: int, n: int) -> np.ndarray:
    """Phases nu_0..nu_n drawn uniform on [-pi, pi)."""
    rng = np.random.default_rng(_seq(seed, workload, rnd, slot, 1))
    return rng.uniform(-np.pi, np.pi, n + 1)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    return q * (diag.conj() / np.abs(diag))


def rotated_partition_coin(n: int, d: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """C_j = S V E_j V*: a random partition rotated by a random unitary V.

    ``E_j`` projects onto a block of a random balanced coordinate partition,
    so the projections ``P_j = S* C_j = V E_j V*`` are orthogonal, sum to
    the identity, and are not coordinate projections.
    """
    s = haar_unitary(d, rng)
    v = haar_unitary(d, rng)
    blocks = np.array_split(rng.permutation(d), n + 1)
    return tuple(s @ (v[:, b] @ v[:, b].conj().T) for b in blocks)


def grover_block_coin(n: int, d: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The d x d Grover matrix split by a random partition into n+1 equal blocks."""
    s = 2.0 / d * np.ones((d, d)) - np.eye(d)
    ops = []
    for block in np.array_split(rng.permutation(d), n + 1):
        op = np.zeros((d, d))
        op[:, block] = s[:, block]
        ops.append(op.astype(complex))
    return tuple(ops)


def write_coin_file(path: Path, ops: tuple[np.ndarray, ...]) -> None:
    d = ops[0].shape[0]
    doc = {
        "n": len(ops) - 1,
        "d": d,
        "ops": [[[float(z.real), float(z.imag)] for z in op.ravel()] for op in ops],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _nu_flag(nu: np.ndarray) -> str:
    # '=' keeps argparse from reading a leading minus sign as an option
    return "--nu=" + ",".join(repr(float(p)) for p in nu)


def _task(seed, workload, rnd, slot, label, n, d, coin, flags, coin_ops=None) -> Task:
    nu = potential(seed, workload, rnd, slot, n)
    s = task_seed(seed, workload, rnd, slot)
    argv = tuple(flags) + (_nu_flag(nu), "--seed", str(s))
    return Task(label, argv, n, d, s, nu, coin, coin_ops)


def round_tasks(workload: str, seed: int, rnd: int, workdir: Path) -> list[Task]:
    """Tasks of round ``rnd``; writes the coin files the round needs to ``workdir``."""
    if workload == "simulate":
        n, d = SIMULATE_N, SIMULATE_N + 1
        walk = ("--initial", f"uniform:{SIMULATE_INITIAL_SIGMA}", "--steps", str(SIMULATE_STEPS))
        tasks = []
        for slot in range(SIMULATE_TASKS):
            if slot % 2 == 0:
                tasks.append(_task(seed, workload, rnd, slot, "simulate/random", n, d, "random",
                                   ("--task", "simulate", "--n", str(n), "--coin", "random") + walk))
                continue
            ops = rotated_partition_coin(n, d, np.random.default_rng(_seq(seed, workload, rnd, slot, 2)))
            coin_path = workdir / f"simulate-coin-r{rnd}-{slot}.json"
            write_coin_file(coin_path, ops)
            tasks.append(_task(seed, workload, rnd, slot, "simulate/rotated-file", n, d, "file",
                               ("--task", "simulate", "--coin-file", str(coin_path)) + walk, ops))
        return tasks
    if workload == "spectrum":
        bn, bd = SPECTRUM_BLOCK_N, SPECTRUM_BLOCK_D
        coin_rng = np.random.default_rng(_seq(seed, workload, rnd, 3, 2))
        ops = grover_block_coin(bn, bd, coin_rng)
        coin_path = workdir / f"spectrum-coin-r{rnd}.json"
        write_coin_file(coin_path, ops)
        rn, gn, wn, wd = SPECTRUM_RANDOM_N, SPECTRUM_GROVER_N, SPECTRUM_WIDE_N, SPECTRUM_WIDE_D
        return [
            _task(seed, workload, rnd, 0, "spectrum/random-n7", rn, rn + 1, "random",
                  ("--task", "spectrum", "--n", str(rn), "--coin", "random")),
            _task(seed, workload, rnd, 1, "spectrum/grover-n7", gn, gn + 1, "grover",
                  ("--task", "spectrum", "--n", str(gn), "--coin", "grover")),
            _task(seed, workload, rnd, 2, "spectrum/random17-n6", wn, wd, f"random:{wd}",
                  ("--task", "spectrum", "--n", str(wn), "--coin", f"random:{wd}")),
            _task(seed, workload, rnd, 3, "spectrum/grover-blocks-n6", bn, bd, "file",
                  ("--task", "spectrum", "--coin-file", str(coin_path)), ops),
        ]
    if workload == "verify":
        n = VERIFY_N
        return [
            _task(seed, workload, rnd, 0, "verify/grover-n6", n, n + 1, "grover",
                  ("--task", "verify-all", "--n", str(n), "--coin", "grover",
                   "--samples", str(VERIFY_SAMPLES))),
        ]
    raise ValueError(f"unknown workload '{workload}'")
