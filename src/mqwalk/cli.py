"""Command-line front end: configured experiments with reproducible reports.

One experiment per invocation.  The configuration comes from flags, from a
JSON config file, or both (flags win).  All randomness flows through a
single generator seeded by --seed and echoed in the report header, so a
fixed configuration produces byte-identical report files.  Reports are
streamed to a temporary name as they are rendered and renamed at the end,
so a report file appears whole or not at all, and nothing is written at all
when the input is rejected.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 invalid
input, capacity guard or allocation failure, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .coin import (
    DEFAULT_COIN_TOL,
    CoinSystem,
    grover_coin_system,
    hadamard_partition_coin_system,
    random_coin_system,
    validate_coin_system,
)
from .fock import dimension, verify_car
from .magnetic import MagneticPotential, eigenbasis_check, null_potential, random_potential
from .spectra import (
    DEFAULT_SPECTRUM_TOL,
    EigensolverError,
    coin_sum_eigensystem,
    verify_approximate_spectrum_theorem,
    verify_point_spectrum_theorem,
    verify_spectral_stability,
    walk_point_spectrum,
)
from .walk import (
    CapacityError,
    evolution_operator,
    intertwining_check,
    magnetic_eigenstate,
    position_distribution,
    step,
    uniform_coin_vertex_state,
    vertex_state,
)

# The scalar fields of each spectral check, in its task's report and in verify-all
_POINT_FIELDS = ("passed", "hausdorff_distance", "multiset_passed")
_AEV_FIELDS = ("passed", "hausdorff_distance", "max_witness_residual", "matches_point_check")
_STABILITY_FIELDS = ("passed", "max_pairwise_hausdorff", "max_operator_difference")


class InputError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqwalk",
        description="Simulate the magnetic hypercube walk and verify its spectral properties.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    for name, field in FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=field.type,
                            choices=field.choices, help=field.help)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (in rising priority)."""
    merged = dict(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in DEFAULTS:
                raise InputError(f"unknown config key '{key}'")
            merged[norm] = value
    for key in DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value

    _check_types(merged)
    if merged["task"] not in TASKS:
        raise InputError(f"unknown task '{merged['task']}'")
    if merged["n"] is None and merged["coin_file"] is None:
        raise InputError("missing required field: n (or a coin-file to take it from)")
    if merged["format"] not in FIELDS["format"].choices:
        raise InputError(f"format must be json or csv, got '{merged['format']}'")
    if merged["format"] == "csv" and merged["task"] not in ("simulate", "spectrum"):
        raise InputError("csv output is only available for simulate and spectrum")
    return merged


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_types(cfg: dict) -> None:
    """Reject a field whose JSON type is wrong; normalize the numeric ones.

    Int fields take integers and integral floats (3.0 reads as 3), never
    booleans, down to the field's minimum; float fields (the tolerances)
    take positive finite numbers; nu takes a spec string or, for n=0, a
    bare number; the other fields take strings.  A null leaves a field
    unset, which the later checks reject where it is required.
    """
    for name, field in FIELDS.items():
        value = cfg[name]
        if value is None and name == "n":
            continue  # taken from the coin file
        if field.type is int:
            if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
                raise InputError(f"field '{name}' must be an integer, got {json.dumps(value)}")
            cfg[name] = int(value)
            if cfg[name] < field.minimum:
                raise InputError(f"field '{name}' must be >= {field.minimum}, got {cfg[name]}")
        elif field.type is float:
            if not (_is_number(value) and 0 < value <= sys.float_info.max):
                raise InputError(
                    f"field '{name}' must be a positive finite number, got {json.dumps(value)}"
                )
            cfg[name] = float(value)
        elif not (value is None or isinstance(value, str) or (name == "nu" and _is_number(value))):
            kind = "a string or a number" if name == "nu" else "a string"
            raise InputError(f"field '{name}' must be {kind}, got {json.dumps(value)}")


def _build_coin(cfg: dict, rng: np.random.Generator) -> CoinSystem:
    if cfg["coin_file"] is not None:
        try:
            cs = CoinSystem.from_json_file(cfg["coin_file"], tol=cfg["tol_construct"])
        except OSError as exc:
            raise InputError(f"cannot read coin file: {exc}") from exc
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
            raise InputError(f"invalid coin file: {exc}") from exc
        if cfg["n"] is not None and cs.n != cfg["n"]:
            raise InputError(f"coin file has n={cs.n} but config says n={cfg['n']}")
        cfg["n"] = cs.n
        return cs

    name = cfg["coin"]
    n = cfg["n"]
    if name is None:
        raise InputError("missing required field: coin (or coin-file)")
    if name == "grover":
        if n < 1:
            raise InputError("the grover coin needs n >= 1")
        return grover_coin_system(n)
    if name == "hadamard-partition":
        if n != 1:
            raise InputError("the hadamard-partition coin is the n=1 system")
        return hadamard_partition_coin_system()
    if name == "random" or name.startswith("random:"):
        d = n + 1
        if ":" in name:
            try:
                d = int(name.split(":", 1)[1])
            except ValueError as exc:
                raise InputError(f"bad coin spec '{name}': dimension must be an integer") from exc
        if d < n + 1:
            raise InputError(f"random coin dimension d={d} must be >= n+1={n + 1}")
        return random_coin_system(n, d, seed=int(rng.integers(2**63)))
    raise InputError(f"unknown coin '{name}'")


def _build_nu(cfg: dict, rng: np.random.Generator) -> MagneticPotential:
    n, spec = cfg["n"], cfg["nu"]
    if spec == "null":
        return null_potential(n)
    if spec == "random":
        return random_potential(n, rng)
    try:
        phases = [float(part) for part in str(spec).split(",")]
    except ValueError as exc:
        raise InputError(f"bad nu spec '{spec}'") from exc
    if len(phases) != n + 1:
        raise InputError(f"nu needs {n + 1} phases for n={n}, got {len(phases)}")
    try:
        return MagneticPotential(np.array(phases))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _build_initial(cfg: dict, nu: MagneticPotential, cs: CoinSystem):
    desc = cfg["initial"]
    parts = str(desc).split(":")
    try:
        if parts[0] == "vertex" and len(parts) in (2, 3):
            sigma = int(parts[1])
            coin_index = int(parts[2]) if len(parts) == 3 else 0
            return vertex_state(cs.n, cs.d, sigma, coin_index)
        if parts[0] == "uniform" and len(parts) == 2:
            return uniform_coin_vertex_state(cs.n, cs.d, int(parts[1]))
        if parts[0] == "eigen" and len(parts) == 3:
            sigma, k = int(parts[1]), int(parts[2])
            if not 0 <= sigma < dimension(cs.n):
                raise InputError(f"sigma={sigma} out of range for n={cs.n}")
            if not 0 <= k < cs.d:
                raise InputError(f"eigenvector index {k} out of range 0..{cs.d - 1}")
            _, vecs = coin_sum_eigensystem(cs, sigma)
            return magnetic_eigenstate(nu, sigma, vecs[:, k])
    except ValueError as exc:
        raise InputError(f"bad initial state '{desc}': {exc}") from exc
    raise InputError(f"bad initial state '{desc}'")


def _config_echo(cfg: dict, cs: CoinSystem) -> dict:
    # the output path is not part of the experiment, so it stays out of
    # the header and reports are byte-identical wherever they are written
    echo = {k: cfg[k] for k in sorted(DEFAULTS) if k != "out"}
    echo["coin_n"] = cs.n
    echo["coin_d"] = cs.d
    return echo


def _run_simulate(cfg, rng, cs) -> tuple[int, dict | Iterable[str]]:
    nu = _build_nu(cfg, rng)
    op = evolution_operator(nu, cs)
    state = _build_initial(cfg, nu, cs)
    distributions = np.empty((cfg["steps"] + 1, op.dim_fock))
    distributions[0] = position_distribution(state)
    for t in range(1, cfg["steps"] + 1):
        state = step(op, state)
        distributions[t] = position_distribution(state)

    if cfg["format"] == "csv":
        header = ",".join(["step"] + [f"p_{sigma}" for sigma in range(op.dim_fock)])
        rows = (
            ",".join([str(t), *map(float.__repr__, dist.tolist())])
            for t, dist in enumerate(distributions)
        )
        return 0, itertools.chain([header], rows)
    return 0, {
        "distributions": distributions,
        # rows [re, im]
        "final_state": state.vector.view(float).reshape(-1, 2),
        "final_t": state.t,
    }


def _run_spectrum(cfg, rng, cs) -> tuple[int, dict | Iterable[str]]:
    spectrum = walk_point_spectrum(_build_nu(cfg, rng), cs, cluster_tol=cfg["tol_spectrum"])
    if cfg["format"] == "csv":
        lines = ["re,im,arg,mult"]
        for entry in spectrum.to_json_dict()["eigenvalues"]:
            lines.append(
                f"{entry['re']!r},{entry['im']!r},{entry['arg']!r},{entry['mult']}"
            )
        return 0, lines
    return 0, {"spectrum": spectrum.to_json_dict()}


def _fields(check, names: tuple[str, ...]) -> dict:
    return {name: getattr(check, name) for name in names}


def _run_spectrum_check(check_fn, names: tuple[str, ...], cfg, rng, cs) -> tuple[int, dict]:
    """The verify-point and verify-aev runner: ``check_fn`` and its fields."""
    check = check_fn(_build_nu(cfg, rng), cs, tol=cfg["tol_spectrum"])
    return (0 if check.passed else 1), {
        **_fields(check, names),
        "walk_spectrum": check.walk_spectrum.to_json_dict(),
        "union_set": check.union_set.to_json_dict(),
        "union_multiset": check.union_multiset.to_json_dict(),
    }


def _run_verify_stability(cfg, rng, cs) -> tuple[int, dict]:
    # draws no potential: the samples are the first draws after the coin
    check = verify_spectral_stability(cs, samples=cfg["samples"], rng=rng, tol=cfg["tol_spectrum"])
    return (0 if check.passed else 1), {
        **_fields(check, _STABILITY_FIELDS),
        "samples": check.samples,
        "spectra": [rep.to_json_dict() for rep in check.spectra],
    }


def _run_verify_all(cfg, rng, cs) -> tuple[int, dict]:
    nu = _build_nu(cfg, rng)
    tol_c = cfg["tol_construct"]
    tol_s = cfg["tol_spectrum"]

    # first, as it refuses n > DENSE_N_LIMIT (CapacityError) before any
    # costly check; none of the construction checks draws from rng
    intertwining = intertwining_check(evolution_operator(nu, cs))
    car = verify_car(cs.n)
    coin_report = validate_coin_system(cs)
    shifts = eigenbasis_check(nu)
    checks = {
        "car": {**_fields(car, ("max_residual",)), "passed": car.passed()},
        "coin": {**_fields(coin_report, ("mutual_annihilation", "sum_unitarity")),
                 "passed": coin_report.passed(tol_c)},
        "involution": {**_fields(shifts, ("square_residual", "self_adjoint_residual")),
                       "passed": shifts.involution_passed()},
        "eigenbasis": {**_fields(shifts, ("gram_residual", "eigen_relation_residual",
                                          "construction_agreement")),
                       "passed": shifts.eigenbasis_passed(tol_c)},
        "intertwining": {**_fields(intertwining, ("max_vector_residual", "off_block_mass",
                                                  "max_block_mismatch")),
                         "passed": intertwining.passed(tol_c)},
        "point_spectrum": _fields(verify_point_spectrum_theorem(nu, cs, tol=tol_s), _POINT_FIELDS),
        "approximate_spectrum": _fields(
            verify_approximate_spectrum_theorem(nu, cs, tol=tol_s), _AEV_FIELDS
        ),
        "spectral_stability": _fields(
            verify_spectral_stability(cs, samples=cfg["samples"], rng=rng, tol=tol_s),
            _STABILITY_FIELDS,
        ),
    }
    all_passed = all(entry["passed"] for entry in checks.values())
    return (0 if all_passed else 1), {"checks": checks, "passed": all_passed}


# Each runner takes (cfg, rng, cs) and returns the exit code and the report
# body.  The check functions are read from the module when a task runs, so
# a wrapper bound to their module names is the one called.
_RUNNERS = {
    "simulate": _run_simulate,
    "spectrum": _run_spectrum,
    "verify-point": lambda *args: _run_spectrum_check(
        verify_point_spectrum_theorem, _POINT_FIELDS, *args
    ),
    "verify-aev": lambda *args: _run_spectrum_check(
        verify_approximate_spectrum_theorem, _AEV_FIELDS, *args
    ),
    "verify-stability": _run_verify_stability,
    "verify-all": _run_verify_all,
}

TASKS = tuple(_RUNNERS)


# A config field: its default, the type of its flag and of its JSON value,
# the flag's help, and a string field's choices or an int field's least value
Field = namedtuple("Field", ["default", "type", "help", "choices", "minimum"], defaults=(None, 0))

# Each config field, in the order of its flag in --help
FIELDS = {
    "task": Field("verify-all", str, "what to run (default verify-all)", choices=TASKS),
    "n": Field(None, int, "walk order: vertices are subsets of {0,...,n}"),
    "coin": Field(None, str, "builtin coin: grover | hadamard-partition | random | random:<d>"),
    "coin_file": Field(None, str, "JSON coin system file (re-validated on load)"),
    "nu": Field("null", str,
                "magnetic potential: null | random | comma-separated phases in [-pi,pi]"),
    "samples": Field(5, int, "random potentials for verify-stability", minimum=2),
    "seed": Field(0, int, "seed for the single experiment generator"),
    "steps": Field(0, int, "number of steps for simulate"),
    "initial": Field("vertex:0", str, "initial state: vertex:<sigma>[:<coin>] | "
                     "uniform:<sigma> | eigen:<sigma>:<k>"),
    "out": Field(None, str, "report file path (stdout when omitted)"),
    "format": Field("json", str, "report format", choices=("json", "csv")),
    "tol_spectrum": Field(DEFAULT_SPECTRUM_TOL, float, "tolerance for spectral set checks"),
    "tol_construct": Field(DEFAULT_COIN_TOL, float, "tolerance for composite residual checks"),
}

DEFAULTS = {name: field.default for name, field in FIELDS.items()}


# Floats rendered at a time by the report writer: an array is turned into
# text in blocks of whole rows of about this many values, so the writer
# holds one block rather than the report.  While its block is rendered a
# value costs ~140 bytes of Python objects (float, repr string, list and
# tuple slots) against ~27 bytes of report text.
_BLOCK_VALUES = 16384


def _pieces(value, level: int) -> Iterator[str]:
    """JSON text of ``value`` at indent ``level``, in pieces, ndarrays as lists.

    The pieces join to what ``json.dumps(indent=2, sort_keys=True)`` writes
    for the payload with its arrays converted by ``tolist``; that encoder
    is pure Python once ``indent`` is set, so float arrays are rendered in
    bulk instead, and dicts and lists are streamed item by item.
    """
    if isinstance(value, np.ndarray):
        yield from _array_pieces(value, level)
        return
    pad = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(value, dict):
        brackets = "{}"
        items = [(json.dumps(key) + ": ", item) for key, item in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [("", item) for item in value]
    else:
        yield json.dumps(value)
        return
    if not items:
        yield brackets
        return
    sep = brackets[0] + pad
    for prefix, item in items:
        yield sep + prefix
        yield from _pieces(item, level + 1)
        sep = "," + pad
    yield close + brackets[1]


def _array_pieces(arr: np.ndarray, level: int) -> Iterator[str]:
    """Nested-list JSON text of an array at indent ``level``.

    A 2-d array of finite floats, the only kind of array a report holds, is
    rendered in blocks of rows: within a block the values are joined by
    C-level string joins, first along each row and then row to row.  Any
    other array goes through ``tolist``.
    """
    if arr.ndim != 2 or arr.dtype.kind != "f" or arr.size == 0 or not np.isfinite(arr).all():
        # empty rows print as "[]" and json spells non-finite values its own way
        yield from _pieces(arr.tolist(), level)
        return
    outer, inner = ("\n" + "  " * (level + k) for k in (1, 2))
    row_sep = outer + "]," + outer + "[" + inner
    rows = max(1, _BLOCK_VALUES // arr.shape[1])
    yield "[" + outer + "[" + inner
    for start in range(0, arr.shape[0], rows):
        text = map(float.__repr__, arr[start:start + rows].ravel().tolist())
        if start:
            yield row_sep
        yield row_sep.join(map(("," + inner).join, zip(*[iter(text)] * arr.shape[1])))
    yield outer + "]\n" + "  " * level + "]"


def _emit(payload: dict | Iterable[str], out: str | None) -> None:
    """Write a report: a JSON payload, or the lines of a CSV one.

    The text goes out piece by piece as it is rendered.  A file report is
    written to ``<out>.tmp`` and renamed over ``out`` after the last piece,
    so a failure leaves any earlier report at ``out`` untouched.
    """
    if isinstance(payload, dict):
        pieces = itertools.chain(_pieces(payload, 0), ["\n"])
    else:
        pieces = (line + "\n" for line in payload)
    if out is None:
        sys.stdout.writelines(pieces)
        return
    path = Path(out)
    if path.parent and not path.parent.exists():
        raise InputError(f"output directory does not exist: {path.parent}")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _report(cfg: dict) -> tuple[int, dict | Iterable[str]]:
    """Exit code and payload of a resolved config, before the writer sees it.

    The coin is the first draw of every task.  A JSON body gets the task
    and config header; CSV lines pass through as they are.
    """
    rng = np.random.default_rng(cfg["seed"])
    cs = _build_coin(cfg, rng)
    code, body = _RUNNERS[cfg["task"]](cfg, rng, cs)
    if isinstance(body, dict):
        body = {"task": cfg["task"], "config": _config_echo(cfg, cs), **body}
    return code, body


def run(cfg: dict) -> int:
    """Run a resolved experiment config; returns the process exit code."""
    code, payload = _report(cfg)
    _emit(payload, cfg["out"])
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    # InputError is a ValueError; a MemoryError is an allocation refused
    except (ValueError, CapacityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigensolverError as exc:
        print(f"internal numerical failure: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
