"""Reports of fixed configs against stored golden reports.

Each file in ``tests/golden`` is the report of one config below.  The
structure, strings, ints and bools must match exactly and floats within
1e-12, so a different LAPACK build does not fail a correct tree.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from mqwalk import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "verify-all.json": "--task verify-all --n 2 --coin grover --nu random --samples 3 --seed 3",
    "verify-point.json": "--task verify-point --n 2 --coin random --nu random --seed 3",
    "verify-aev.json": "--task verify-aev --n 2 --coin random --nu random --seed 3",
    "verify-stability.json": "--task verify-stability --n 2 --coin grover --samples 3 --seed 3",
    "spectrum.json": "--task spectrum --n 1 --coin hadamard-partition --nu 0.3,0.9",
    "spectrum.csv": "--task spectrum --n 2 --coin random --nu random --seed 3 --format csv",
    # side 160, above the probe's side of 64: the trace-moment route
    "spectrum-n4-grover.json": "--task spectrum --n 4 --coin grover --nu random --seed 3",
    # side 160, the probe does not close: the pencil of the walk's square,
    # at side 80
    "spectrum-n4-random.csv": (
        "--task spectrum --n 4 --coin random --nu random --seed 3 --format csv"
    ),
    "simulate.json": (
        "--task simulate --n 2 --coin random --nu random --seed 4 --steps 5 --initial eigen:5:1"
    ),
}

FLOAT_TOL = 1e-12


def fold_seam(entries):
    """Eigenvalue entries with an arg of pi read as -pi, in argument order.

    An eigenvalue -1 may come out just above or just below the negative
    real axis, so its arg reads pi or -pi and it sorts last or first.
    """
    folded = [
        dict(entry, arg=-math.pi) if entry["arg"] >= math.pi - FLOAT_TOL else entry
        for entry in entries
    ]
    return sorted(folded, key=lambda entry: entry["arg"])


def assert_matches(got, want, path="report"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= FLOAT_TOL, (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        if want and all(isinstance(entry, dict) and "arg" in entry for entry in want):
            got, want = fold_seam(got), fold_seam(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def read_report(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    rows = list(csv.DictReader(path.read_text().splitlines()))
    return [{key: int(v) if key == "mult" else float(v) for key, v in row.items()} for row in rows]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    code = cli.main([*CONFIGS[name].split(), "--out", str(out)])
    assert code == 0
    assert_matches(read_report(out), read_report(GOLDEN / name))


def test_matcher_rejects_a_moved_float():
    want = read_report(GOLDEN / "spectrum.json")
    got = json.loads(json.dumps(want))
    got["spectrum"]["eigenvalues"][1]["re"] += 1e-9
    with pytest.raises(AssertionError):
        assert_matches(got, want)


def test_matcher_folds_the_seam():
    want = read_report(GOLDEN / "spectrum.json")
    got = json.loads(json.dumps(want))
    entries = got["spectrum"]["eigenvalues"]
    assert entries[0]["arg"] == -math.pi
    first = dict(entries[0], arg=math.pi, im=-entries[0]["im"])
    got["spectrum"]["eigenvalues"] = entries[1:] + [first]
    assert_matches(got, want)
