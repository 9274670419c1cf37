"""The benchmark's correctness checks accept real reports and reject corrupted ones.

Reports come from the CLI at small sizes; each corruption is one a faulty
program could produce.  Run with ``python3 -m pytest bench``.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from mqwalk import cli  # noqa: E402


def make_task(tmp_path, task, n, coin, extra=(), d=None, seed=11):
    """A Task like the workloads', at a small size, with a seeded potential."""
    rng = np.random.default_rng(seed)
    nu = rng.uniform(-np.pi, np.pi, n + 1)
    ops = None
    flags = ["--task", task]
    if coin == "file":
        ops = inputs.rotated_partition_coin(n, d, rng)
        path = tmp_path / "coin.json"
        inputs.write_coin_file(path, ops)
        flags += ["--coin-file", str(path)]
    else:
        d = d or n + 1
        flags += ["--n", str(n), "--coin", coin]
    argv = tuple(flags) + tuple(extra) + (inputs._nu_flag(nu), "--seed", str(seed))
    return inputs.Task("test", argv, n, d, seed, nu, coin, ops)


def run_task(tmp_path, task):
    out = tmp_path / "report.json"
    code = cli.main(list(task.argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


def dense_shift(n, j, phase):
    """Xi_j = exp(-i nu_j) a*_j + exp(i nu_j) a_j as a dense matrix."""
    dim = 1 << (n + 1)
    xi = np.zeros((dim, dim), dtype=complex)
    for tau in range(dim):
        if (tau >> j) & 1:
            xi[tau ^ (1 << j), tau] = np.exp(1j * phase)  # a_j removes j
        else:
            xi[tau | (1 << j), tau] = np.exp(-1j * phase)  # a*_j adds j
    return xi


def test_reference_walk_matches_dense_kronecker_sum():
    n, d = 2, 4
    rng = np.random.default_rng(3)
    ops = inputs.rotated_partition_coin(n, d, rng)
    nu = rng.uniform(-np.pi, np.pi, n + 1)
    w = sum(np.kron(dense_shift(n, j, nu[j]), ops[j]) for j in range(n + 1))
    psi = rng.normal(size=(1 << (n + 1), d)) + 1j * rng.normal(size=(1 << (n + 1), d))
    stepped = checks.ReferenceWalk(ops, nu).step(psi)
    assert np.abs(stepped.ravel() - w @ psi.ravel()).max() < 1e-13
    assert np.abs(w.conj().T @ w - np.eye(w.shape[0])).max() < 1e-13


def test_rotated_coin_projections_are_not_coordinate_projections():
    ops = inputs.rotated_partition_coin(3, 6, np.random.default_rng(0))
    s = sum(ops)
    projections = [s.conj().T @ op for op in ops]
    assert np.abs(sum(projections) - np.eye(6)).max() < 1e-13
    assert all(np.abs(p - np.diag(np.diag(p))).max() > 1e-3 for p in projections)


class TestSimulate:
    STEPS = 5

    @pytest.fixture(params=["file", "random:5"])
    def outcome(self, request, tmp_path):
        extra = ("--initial", "uniform:0", "--steps", str(self.STEPS))
        task = make_task(tmp_path, "simulate", 3, request.param, extra, d=5)
        code, report = run_task(tmp_path, task)
        assert code == 0
        return task, report

    def problems(self, task, report):
        return checks.check_simulate(report, checks.coin_ops(task), task.nu, 0, self.STEPS)

    def test_accepts_program_output(self, outcome):
        assert self.problems(*outcome) == []

    def test_rejects_perturbed_final_state(self, outcome):
        task, report = outcome
        report["final_state"][7][1] += 1e-9
        assert any("final state" in p for p in self.problems(task, report))

    def test_rejects_negative_probability(self, outcome):
        task, report = outcome
        row = report["distributions"][2]
        row[0], row[1] = -1e-3, row[1] + row[0] + 1e-3
        assert any("negative" in p for p in self.problems(task, report))

    def test_rejects_row_not_summing_to_one(self, outcome):
        task, report = outcome
        report["distributions"][-1][3] += 1e-8
        assert any("sums to 1" in p for p in self.problems(task, report))

    def test_rejects_mass_moved_between_vertices(self, outcome):
        task, report = outcome
        row = report["distributions"][3]
        row[0], row[5] = row[0] - 1e-6, row[5] + 1e-6
        assert any("reference walk" in p for p in self.problems(task, report))


class TestSpectrum:
    @pytest.fixture(params=[("random:5", 5), ("grover", None), ("file", 4)])
    def outcome(self, request, tmp_path):
        coin, d = request.param
        task = make_task(tmp_path, "spectrum", 2, coin, d=d)
        code, report = run_task(tmp_path, task)
        assert code == 0
        return task, report

    def problems(self, task, report):
        return checks.check_spectrum(report, checks.coin_ops(task), task.nu)

    def test_accepts_program_output(self, outcome):
        assert self.problems(*outcome) == []

    def test_rejects_dropped_eigenvalue(self, outcome):
        task, report = outcome
        del report["spectrum"]["eigenvalues"][1]
        assert self.problems(task, report)

    def test_rejects_moved_eigenvalue(self, outcome):
        task, report = outcome
        entry = report["spectrum"]["eigenvalues"][0]
        z = complex(entry["re"], entry["im"]) * np.exp(1e-6j)
        entry["re"], entry["im"] = z.real, z.imag
        assert any("Hausdorff" in p for p in self.problems(task, report))

    def test_rejects_eigenvalue_off_the_circle(self, outcome):
        task, report = outcome
        entry = report["spectrum"]["eigenvalues"][0]
        entry["re"] *= 1 + 1e-6
        entry["im"] *= 1 + 1e-6
        assert any("unit circle" in p for p in self.problems(task, report))

    def test_rejects_wrong_multiplicities(self, outcome):
        task, report = outcome
        values = report["spectrum"]["eigenvalues"]
        values[0]["mult"] += 1
        values[-1]["mult"] -= 1
        assert any("multiplicities differ" in p for p in self.problems(task, report))

    def test_rejects_other_potential(self, outcome):
        task, report = outcome
        report["spectrum"]["nu"][0] += 0.5
        assert any("echoes nu" in p for p in self.problems(task, report))


class TestVerify:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("verify")
        task = make_task(tmp_path, "verify-all", 2, "grover", ("--samples", "3"))
        return run_task(tmp_path, task)

    def test_accepts_program_output(self, outcome):
        code, report = outcome
        assert checks.check_verify(report, code) == []

    def test_rejects_failing_exit_code(self, outcome):
        code, report = outcome
        assert checks.check_verify(report, 1)

    @pytest.mark.parametrize("group, field", sorted(checks.VERIFY_LIMITS))
    def test_rejects_residual_over_its_limit(self, outcome, group, field):
        code, report = outcome
        bad = copy.deepcopy(report)
        bad["checks"][group][field] = 10 * checks.VERIFY_LIMITS[(group, field)]
        assert any(f"{group}.{field}" in p for p in checks.check_verify(bad, code))

    def test_rejects_failed_check(self, outcome):
        code, report = outcome
        bad = copy.deepcopy(report)
        bad["checks"]["intertwining"]["passed"] = False
        assert any("intertwining" in p for p in checks.check_verify(bad, code))

    def test_rejects_missing_check(self, outcome):
        code, report = outcome
        bad = copy.deepcopy(report)
        del bad["checks"]["car"]
        assert checks.check_verify(bad, code)

    def test_rejects_potential_that_did_not_move_the_operator(self, outcome):
        code, report = outcome
        bad = copy.deepcopy(report)
        bad["checks"]["spectral_stability"]["max_operator_difference"] = 0.0
        assert any("moved" in p for p in checks.check_verify(bad, code))


def test_identical_reports():
    assert checks.check_identical(b'{"a": 1}\n', b'{"a": 1}\n') == []
    assert "first difference at byte 6" in checks.check_identical(b'{"a": 1}', b'{"a": 2}')[0]
