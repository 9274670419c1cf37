"""Tests for the command-line front end: tasks, exit codes, determinism."""

import csv
import filecmp
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mqwalk import _eigen, cli, coin, spectra


def run_cli(*argv):
    return cli.main(list(argv))


class TestConfigResolution:
    def test_missing_n_is_input_error(self, capsys):
        assert run_cli("--task", "simulate", "--coin", "grover") == 2
        assert "missing required field: n" in capsys.readouterr().err

    def test_unknown_coin(self, capsys):
        assert run_cli("--task", "spectrum", "--n", "2", "--coin", "fancy") == 2
        assert "unknown coin" in capsys.readouterr().err

    def test_bad_nu_phase_range(self):
        assert run_cli("--task", "spectrum", "--n", "1", "--coin", "grover",
                       "--nu", "5.0,0.0") == 2

    def test_bad_nu_length(self):
        assert run_cli("--task", "spectrum", "--n", "2", "--coin", "grover",
                       "--nu", "0.1,0.2") == 2

    def test_bad_task_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--task", "nonsense", "--n", "1", "--coin", "grover")
        assert exc.value.code == 2

    def test_csv_rejected_for_verify(self):
        assert run_cli("--task", "verify-point", "--n", "1", "--coin", "grover",
                       "--format", "csv") == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"task": "spectrum", "n": 1, "coin": "grover",
                                      "nu": "null"}))
        out = tmp_path / "rep.json"
        code = run_cli("--config", str(config), "--nu", "0.5,0.5", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["nu"] == "0.5,0.5"

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 1, "coin": "grover", "bogus": 1}))
        assert run_cli("--config", str(config)) == 2
        assert "bogus" in capsys.readouterr().err

    def test_hadamard_partition_needs_n1(self):
        assert run_cli("--task", "spectrum", "--n", "2",
                       "--coin", "hadamard-partition") == 2

    def test_grover_needs_n1(self):
        assert run_cli("--task", "spectrum", "--n", "0", "--coin", "grover") == 2

    def test_random_coin_dimension_spec(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli("--task", "spectrum", "--n", "1", "--coin", "random:4",
                       "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["config"]["coin_d"] == 4

    def test_random_coin_dimension_too_small(self):
        assert run_cli("--task", "spectrum", "--n", "2", "--coin", "random:2") == 2

    @pytest.mark.parametrize("fields", [
        {"seed": None},
        {"tol_spectrum": None},
        {"n": "3"},
        {"n": 2.5},
        {"coin": 5},
        {"samples": 3.7},
        {"n": True},
        {"steps": False},
        {"seed": -1},
        {"tol_construct": float("nan")},
        {"tol_spectrum": float("inf")},
        {"nu": [0.1, 0.2]},
        {"out": 5},
        {"task": 5},
        {"coin_file": 5},
        {"initial": 5},
        {"format": 5},
    ], ids=lambda fields: json.dumps(fields))
    def test_mistyped_config_field_is_input_error(self, fields, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        doc = {"task": "verify-stability", "n": 1, "coin": "grover", "samples": 2}
        config.write_text(json.dumps({**doc, **fields}))
        assert run_cli("--config", str(config)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [config]

    def test_one_flag_per_field(self):
        actions = cli.build_parser()._actions[1:]  # after --help
        assert [action.option_strings for action in actions] == [["--config"]] + [
            ["--" + name.replace("_", "-")] for name in cli.FIELDS
        ]
        assert [(action.dest, action.type, action.choices) for action in actions[1:]] == [
            (name, field.type, field.choices) for name, field in cli.FIELDS.items()
        ]

    @pytest.mark.parametrize("fields, echoed", [
        ({"task": "verify-stability", "n": 1.0, "samples": 3.0}, {"n": 1, "samples": 3}),
        ({"task": "spectrum", "n": 0, "coin": "random", "nu": 0.5}, {"nu": 0.5}),
        ({"task": "spectrum", "n": 0, "coin": "random", "nu": 0}, {"nu": 0}),
        ({"task": "spectrum", "n": 1, "tol_spectrum": 1}, {"tol_spectrum": 1.0}),
    ])
    def test_numeric_config_fields_accepted(self, fields, echoed, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"coin": "grover", **fields}))
        out = tmp_path / "rep.json"
        assert run_cli("--config", str(config), "--out", str(out)) == 0
        echo = json.loads(out.read_text())["config"]
        for key, value in echoed.items():
            assert echo[key] == value and type(echo[key]) is type(value)

    @pytest.mark.parametrize("task", ["spectrum", "verify-point"])
    def test_nan_phase_is_input_error(self, task, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run_cli("--task", task, "--n", "1", "--coin", "grover", "--nu=nan,0",
                       "--out", str(out)) == 2
        assert "outside [-pi, pi]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_csv_rows_sum_to_one(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli("--task", "simulate", "--n", "2", "--coin", "grover",
                       "--nu", "null", "--steps", "10", "--initial", "vertex:0",
                       "--format", "csv", "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "step"
        assert len(rows) == 12
        for row in rows[1:]:
            assert abs(sum(map(float, row[1:])) - 1.0) <= 1e-10

    def test_json_report(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli("--task", "simulate", "--n", "1", "--coin", "hadamard-partition",
                       "--nu", "random", "--seed", "3", "--steps", "4",
                       "--initial", "uniform:1", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["task"] == "simulate"
        assert len(report["distributions"]) == 5
        assert report["final_t"] == 4
        assert len(report["final_state"]) == 8
        assert all(len(z) == 2 for z in report["final_state"])
        norm = sum(re * re + im * im for re, im in report["final_state"])
        assert abs(norm - 1.0) <= 1e-10

    def test_initial_descriptors(self, tmp_path):
        for descriptor in ("vertex:2", "vertex:2:1", "uniform:3", "eigen:1:0"):
            out = tmp_path / "sim.json"
            code = run_cli("--task", "simulate", "--n", "1", "--coin",
                           "hadamard-partition", "--steps", "1",
                           "--initial", descriptor, "--out", str(out))
            assert code == 0, descriptor

    def test_bad_initial_descriptor(self):
        assert run_cli("--task", "simulate", "--n", "1", "--coin", "grover",
                       "--initial", "junk:1") == 2
        assert run_cli("--task", "simulate", "--n", "1", "--coin", "grover",
                       "--initial", "vertex:9") == 2
        assert run_cli("--task", "simulate", "--n", "1", "--coin", "grover",
                       "--initial", "eigen:1:7") == 2

    def test_allocation_failure_is_exit_2(self, tmp_path, capsys):
        # a side of 2^41 * 41 amplitudes: numpy refuses the 1.28 PiB state at
        # once, and no memory is committed
        out = tmp_path / "sim.json"
        assert run_cli("--task", "simulate", "--n", "40", "--coin", "grover",
                       "--steps", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_eigen_initial_is_stationary(self, tmp_path):
        # an eigenbasis fiber state keeps its position distribution
        out = tmp_path / "sim.json"
        code = run_cli("--task", "simulate", "--n", "1", "--coin", "hadamard-partition",
                       "--nu", "random", "--seed", "5", "--steps", "6",
                       "--initial", "eigen:2:1", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        first = np.array(report["distributions"][0])
        for dist in report["distributions"][1:]:
            np.testing.assert_allclose(np.array(dist), first, atol=1e-10)


    def test_csv_rows_match_json_distributions(self, tmp_path):
        args = ("--task", "simulate", "--n", "2", "--coin", "random", "--nu", "random",
                "--seed", "8", "--steps", "5", "--initial", "uniform:3")
        assert run_cli(*args, "--out", str(tmp_path / "sim.json")) == 0
        assert run_cli(*args, "--format", "csv", "--out", str(tmp_path / "sim.csv")) == 0
        dists = json.loads((tmp_path / "sim.json").read_text())["distributions"]
        lines = ["step," + ",".join(f"p_{sigma}" for sigma in range(8))]
        lines += [",".join([str(t)] + [repr(float(p)) for p in dist])
                  for t, dist in enumerate(dists)]
        assert (tmp_path / "sim.csv").read_text() == "\n".join(lines) + "\n"


def as_lists(value):
    """The payload with every ndarray replaced by nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


def reference_text(payload):
    return json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"


def edge_payload():
    """Every kind of value and array shape the report writer handles."""
    values = np.array([-0.0, 5e-324, 1e-05, 1e16, 0.1, -2.5e-300, 1.0, 123456789.0])
    return {
        "floats": values.tolist(),
        "row": values,
        "rows": values.reshape(4, 2),
        "cube": values.reshape(2, 2, 2),
        "column": values.reshape(8, 1),
        "scalar_array": np.array(0.5),
        "empty_rows": np.zeros((2, 0)),
        "no_rows": np.zeros((0, 3)),
        "non_finite": np.array([np.nan, np.inf, -np.inf, 1.5]),
        "ints": [0, -7, 2**70],
        "int_array": np.arange(3),
        "nothing": None,
        "flags": [True, False],
        "empty_list": [],
        "empty_dict": {},
        "nested": {"b": [[], [[1.5]], {"z": "\u00e9\"q"}], "a": (1, 2.0)},
        "float64": np.float64(1e16),
    }


def simulate_payload(*argv):
    """Exit code and payload of a simulate task, before the writer sees it."""
    return cli._report(cli.resolve_config(cli.build_parser().parse_args(list(argv))))


class TestReportWriter:
    """_emit writes what json.dumps(indent=2, sort_keys=True) writes."""

    @pytest.mark.parametrize("argv", [
        ("--task", "simulate", "--n", "2", "--coin", "random:4", "--nu", "random",
         "--steps", "3", "--initial", "uniform:5"),
        ("--task", "simulate", "--n", "0", "--coin", "random", "--steps", "0"),
        ("--task", "spectrum", "--n", "2", "--coin", "grover", "--nu", "random"),
        ("--task", "verify-point", "--n", "1", "--coin", "hadamard-partition"),
        ("--task", "verify-aev", "--n", "2", "--coin", "random", "--nu", "random"),
        ("--task", "verify-stability", "--n", "1", "--coin", "grover", "--samples", "2"),
        ("--task", "verify-all", "--n", "2", "--coin", "grover", "--nu", "random",
         "--samples", "2"),
    ], ids=lambda argv: argv[1])
    def test_task_reports(self, argv, tmp_path):
        cfg = cli.resolve_config(cli.build_parser().parse_args([*argv, "--seed", "4"]))
        _, payload = cli._report(cfg)
        out = tmp_path / "report.json"
        cli._emit(payload, str(out))
        assert out.read_text(encoding="utf-8") == reference_text(payload)

    def test_edge_values_and_shapes(self, capsys):
        payload = edge_payload()
        cli._emit(payload, None)
        assert capsys.readouterr().out == reference_text(payload)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_block_size_does_not_change_bytes(self, block, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
        payload = edge_payload()
        cli._emit(payload, None)
        assert capsys.readouterr().out == reference_text(payload)

        args = ("--task", "simulate", "--n", "2", "--coin", "random:4", "--nu", "random",
                "--seed", "6", "--steps", "4", "--initial", "uniform:5")
        _, payload = simulate_payload(*args)
        cli._emit(payload, str(tmp_path / "sim.json"))
        assert (tmp_path / "sim.json").read_text(encoding="utf-8") == reference_text(payload)

        _, lines = simulate_payload(*args, "--format", "csv")
        cli._emit(lines, str(tmp_path / "sim.csv"))
        header = "step," + ",".join(f"p_{sigma}" for sigma in range(8))
        rows = [",".join([str(t), *map(repr, dist)])
                for t, dist in enumerate(payload["distributions"].tolist())]
        assert (tmp_path / "sim.csv").read_text(encoding="utf-8") == (
            "\n".join([header, *rows]) + "\n"
        )

    def test_failure_leaves_no_partial_report(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report")
        payload = {"a": np.random.default_rng(0).random((64, 1024)), "z": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._emit(payload, str(out))
        assert out.read_bytes() == b"earlier report"
        assert sorted(tmp_path.iterdir()) == [out]

    def test_writer_holds_a_block_not_the_report(self, tmp_path):
        # the earlier writer held the text, a copy with its newline, and the
        # encoded bytes at once: over 3x the report
        payload = {"distributions": np.random.default_rng(1).random((61, 16384))}
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            cli._emit(payload, str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 8


class TestSpectrumTask:
    def test_json_schema(self, tmp_path):
        out = tmp_path / "spec.json"
        code = run_cli("--task", "spectrum", "--n", "1", "--coin", "hadamard-partition",
                       "--nu", "0.3,0.9", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        spec = report["spectrum"]
        assert set(spec) == {"source", "nu", "tolerance", "eigenvalues"}
        assert spec["nu"] == [0.3, 0.9]
        assert sum(e["mult"] for e in spec["eigenvalues"]) == 8
        args = [e["arg"] for e in spec["eigenvalues"]]
        assert args == sorted(args)

    def test_spectrum_ignores_potential(self, tmp_path):
        values = []
        for nu_spec in ("null", "0.3,0.9"):
            out = tmp_path / f"spec_{nu_spec.replace(',', '_')}.json"
            assert run_cli("--task", "spectrum", "--n", "1",
                           "--coin", "hadamard-partition", "--nu", nu_spec,
                           "--out", str(out)) == 0
            report = json.loads(out.read_text())
            values.append({
                (round(e["re"], 6) + 0.0, round(e["im"], 6) + 0.0): e["mult"]
                for e in report["spectrum"]["eigenvalues"]
            })
        assert values[0] == values[1]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("--task", "spectrum", "--n", "1", "--coin", "grover",
                       "--format", "csv", "--out", str(out)) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["re", "im", "arg", "mult"]
        assert sum(int(r[3]) for r in rows[1:]) == 8

    def test_capacity_guard_maps_to_input_error(self, capsys):
        assert run_cli("--task", "spectrum", "--n", "11", "--coin", "random") == 2
        assert "n <= 10" in capsys.readouterr().err

    def test_random_walk_at_n10_refused_before_its_dense_step(self, monkeypatch, capsys):
        # the side-22,528 walk's pencil is solved on one colour class, two
        # 11,264^2 complex arrays (4 GB); memory short of them is an input
        # error, raised before any dense array: one side x side array
        # would be 8 GB, and the traced peak is the CSR walk, its nonzero
        # entries and the sparse M (measured: 41 MB)
        half = 11264
        monkeypatch.setattr(_eigen, "_available_memory", lambda: 2 * half * half * 16 - 1)
        tracemalloc.start()
        try:
            assert run_cli("--task", "spectrum", "--n", "10", "--coin", "random") == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"side {half} needs" in capsys.readouterr().err
        assert peak < 64 * 2**20

    def test_solver_failure_is_not_input_error(self, monkeypatch, capsys):
        def missed_gate(*args, **kwargs):
            raise spectra.EigensolverError("eigen-residual 1.0 exceeds 1e-08")

        monkeypatch.setattr(cli, "walk_point_spectrum", missed_gate)
        assert run_cli("--task", "spectrum", "--n", "1", "--coin", "grover") == 3
        assert "internal numerical failure" in capsys.readouterr().err

    def test_lapack_failure_is_not_input_error(self, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")

        monkeypatch.setattr(_eigen.sla, "eigh", no_convergence)
        assert run_cli("--task", "spectrum", "--n", "1", "--coin", "grover") == 3
        err = capsys.readouterr().err
        assert "internal numerical failure" in err and "converge" in err


def fail_at_coin_side(monkeypatch):
    """Make every ``scipy.linalg.eigh`` call on a 3 x 3 matrix, a coin sum
    of the Grover coin at n = 2, fail to converge; the others run."""
    eigh = _eigen.sla.eigh

    def no_convergence_at_3(a, *args, **kwargs):
        if a.shape == (3, 3):
            raise np.linalg.LinAlgError("the algorithm failed to converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(_eigen.sla, "eigh", no_convergence_at_3)


class TestVerifyTasks:
    def test_coin_sum_lapack_failure_is_not_input_error(self, monkeypatch, capsys):
        # the walk's own solve (side 24) runs; the 3 x 3 coin sums fail,
        # the union's first
        fail_at_coin_side(monkeypatch)
        assert run_cli("--task", "verify-point", "--n", "2", "--coin", "grover") == 3
        err = capsys.readouterr().err
        assert "internal numerical failure" in err and "converge" in err
        assert "coin sum at vertex 0:" in err

    def test_eigenstate_lapack_failure_is_not_input_error(self, monkeypatch, capsys):
        # the eigen: initial state solves the coin sum of its vertex
        fail_at_coin_side(monkeypatch)
        assert run_cli("--task", "simulate", "--n", "2", "--coin", "grover",
                       "--initial", "eigen:5:1") == 3
        err = capsys.readouterr().err
        assert "internal numerical failure" in err and "converge" in err
        assert "coin sum at vertex 5:" in err

    def test_no_walk_side_eigh_on_a_degenerate_walk(self, monkeypatch, tmp_path):
        # Grover at n=6, side 896: every walk spectrum takes the
        # trace-moment route, and only the 7 x 7 coin sums meet eigh
        shapes = []
        eigh = _eigen.sla.eigh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(_eigen.sla, "eigh", spy)
        out = tmp_path / "all.json"
        assert run_cli("--task", "verify-all", "--n", "6", "--coin", "grover",
                       "--samples", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["passed"] is True
        assert shapes and set(shapes) == {(7, 7)}

    def test_verify_all_refuses_large_n_before_costly_checks(self, monkeypatch, capsys):
        calls = []
        for name in ("verify_car", "eigenbasis_check"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        assert run_cli("--task", "verify-all", "--n", "11", "--coin", "grover") == 2
        assert "n <= 10" in capsys.readouterr().err
        assert calls == []

    def test_verify_stability_draws_no_potential(self, tmp_path):
        # the sampled potentials are the first draws after the coin, so the
        # --nu spec changes only the config echo
        reports = []
        for nu_spec in ("null", "random"):
            out = tmp_path / f"stab-{nu_spec}.json"
            assert run_cli("--task", "verify-stability", "--n", "2", "--coin", "random",
                           "--nu", nu_spec, "--samples", "3", "--seed", "12",
                           "--out", str(out)) == 0
            report = json.loads(out.read_text())
            assert report["config"].pop("nu") == nu_spec
            reports.append(report)
        assert reports[0] == reports[1]
        assert len({json.dumps(spectrum["nu"]) for spectrum in reports[0]["spectra"]}) == 4

    def test_verify_point_passes(self, tmp_path):
        out = tmp_path / "point.json"
        code = run_cli("--task", "verify-point", "--n", "2", "--coin", "grover",
                       "--nu", "random", "--seed", "1", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["multiset_passed"] is True
        assert report["hausdorff_distance"] <= 1e-8

    def test_verify_aev_passes(self, tmp_path):
        out = tmp_path / "aev.json"
        code = run_cli("--task", "verify-aev", "--n", "1", "--coin",
                       "hadamard-partition", "--nu", "random", "--seed", "2",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["max_witness_residual"] <= 1e-8
        assert report["matches_point_check"] is True

    def test_verify_stability_passes(self, tmp_path):
        out = tmp_path / "stab.json"
        code = run_cli("--task", "verify-stability", "--n", "1", "--coin",
                       "hadamard-partition", "--samples", "4", "--seed", "6",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["max_operator_difference"] > 1e-6
        assert len(report["spectra"]) == 5

    def test_verify_all_passes(self, tmp_path):
        out = tmp_path / "all.json"
        code = run_cli("--task", "verify-all", "--n", "2", "--coin", "grover",
                       "--nu", "random", "--samples", "3", "--seed", "7",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        expected_checks = {
            "car", "coin", "involution", "eigenbasis", "intertwining",
            "point_spectrum", "approximate_spectrum", "spectral_stability",
        }
        assert set(report["checks"]) == expected_checks
        for name, check in report["checks"].items():
            assert check["passed"] is True, name

    def test_unattainable_tolerance_gives_exit_1(self, tmp_path):
        # an impossibly tight spectral tolerance forces a check failure,
        # which is reported (exit 1), not treated as an input error
        out = tmp_path / "fail.json"
        code = run_cli("--task", "verify-point", "--n", "1", "--coin", "random",
                       "--nu", "random", "--seed", "8", "--tol-spectrum", "1e-300",
                       "--out", str(out))
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False


class TestDeterminismAndFiles:
    def test_reports_byte_identical(self, tmp_path):
        args = ("--task", "verify-all", "--n", "1", "--coin", "hadamard-partition",
                "--nu", "random", "--samples", "3", "--seed", "11")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_spectrum_reports_byte_identical(self, tmp_path):
        # side 896: the Krylov probe and the trace-moment thread pool run
        args = ("--task", "spectrum", "--n", "6", "--coin", "grover",
                "--nu", "random", "--seed", "3")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        assert filecmp.cmp(out_a, out_b, shallow=False)

    def test_different_seeds_differ(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ("--task", "verify-stability", "--n", "1", "--coin",
                "hadamard-partition", "--samples", "3")
        assert run_cli(*base, "--seed", "1", "--out", str(out_a)) == 0
        assert run_cli(*base, "--seed", "2", "--out", str(out_b)) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_no_file_on_input_error(self, tmp_path):
        out = tmp_path / "never.json"
        code = run_cli("--task", "spectrum", "--n", "1", "--coin", "grover",
                       "--nu", "bogus", "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert not out.with_name(out.name + ".tmp").exists()

    def test_stdout_when_no_out(self, capsys):
        code = run_cli("--task", "spectrum", "--n", "1", "--coin", "grover")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["task"] == "spectrum"

    def test_coin_file_round_trip(self, tmp_path):
        cs = coin.random_coin_system(1, 3, seed=19)
        coin_path = tmp_path / "coin.json"
        coin_path.write_text(json.dumps(cs.to_json_dict()))
        out = tmp_path / "rep.json"
        code = run_cli("--task", "verify-point", "--coin-file", str(coin_path),
                       "--nu", "random", "--seed", "3", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["coin_d"] == 3

    def test_invalid_coin_file_rejected(self, tmp_path, capsys):
        doc = coin.grover_coin_system(1).to_json_dict()
        doc["ops"][0][0] = [9.0, 0.0]
        coin_path = tmp_path / "bad.json"
        coin_path.write_text(json.dumps(doc))
        assert run_cli("--task", "spectrum", "--coin-file", str(coin_path)) == 2
        assert "invalid coin file" in capsys.readouterr().err

    def test_missing_coin_file(self):
        assert run_cli("--task", "spectrum", "--coin-file", "/nonexistent.json") == 2


def test_console_entry_point_subprocess():
    # the child finds the package on PYTHONPATH whether or not it is installed
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mqwalk.cli", "--task", "spectrum", "--n", "1",
         "--coin", "grover"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["spectrum"]["eigenvalues"]
