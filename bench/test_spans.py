"""The traced launcher catches names imported by name and survives missing ones.

Each case runs in a fresh interpreter, because installing the wrappers
patches the mqwalk modules for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)]))


def test_traced_task_records_spans_across_modules(tmp_path):
    sidecar = tmp_path / "side.json"
    argv = [sys.executable, str(BENCH / "launch.py"), str(sidecar), "traced", "64", "4", "--",
            "--task", "verify-all", "--n", "3", "--coin", "grover", "--samples", "2",
            "--out", str(tmp_path / "report.json")]
    assert subprocess.run(argv, env=ENV, timeout=120).returncode == 0
    doc = json.loads(sidecar.read_text())
    names = [span[0] for span in doc["spans"]]
    parents = {(span[0], names[span[3]]) for span in doc["spans"] if span[3] >= 0}
    # cli imports the verify entry points by name; spectra imports
    # unitarity_residual by name
    assert ("spectra.verify_point_spectrum_theorem", "cli.run") in parents
    assert ("linalg.unitarity_residual", "spectra.unitary_eigenvalues") in parents
    # walk side 2^4 * 4 = 64: point, AEV and its inner point check, and the
    # null plus two sampled potentials; coin side 4: 3 unions and the
    # witness loop over 16 signed sums
    assert names.count("linalg.eigh_dense") == 6
    assert names.count("linalg.eigh_coin") == 64
    assert doc["setup_end"] is not None


def test_missing_name_is_left_out_not_fatal():
    script = (
        "import mqwalk.cli, mqwalk.fock\n"
        "del mqwalk.fock.verify_car\n"
        "from spans import Recorder\n"
        "print(','.join(Recorder(64, 4).install(traced=True)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    installed = out.stdout.strip().split(",")
    assert "fock.verify_car" not in installed
    assert "fock.dimension" in installed and "cli._emit" in installed
