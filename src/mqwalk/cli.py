"""Command-line front end: configured experiments with reproducible reports.

One experiment per invocation.  The configuration comes from flags, from a
JSON config file, or both (flags win).  All randomness flows through a
single generator seeded by --seed and echoed in the report header, so a
fixed configuration produces byte-identical report files.  Reports are
written atomically (write to a temporary name, then rename), and nothing is
written at all when the input is rejected.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 invalid
input or capacity guard, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .coin import (
    CoinSystem,
    grover_coin_system,
    hadamard_partition_coin_system,
    random_coin_system,
    validate_coin_system,
)
from .fock import dimension, verify_car
from .magnetic import (
    MagneticPotential,
    magnetic_basis_change,
    magnetic_basis_vector,
    magnetic_shift,
    null_potential,
    random_potential,
    xi_hat_vacuum_columns,
)
from .spectra import (
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

TASKS = (
    "simulate",
    "spectrum",
    "verify-point",
    "verify-aev",
    "verify-stability",
    "verify-all",
)

DEFAULTS = {
    "task": "verify-all",
    "n": None,
    "coin": None,
    "coin_file": None,
    "nu": "null",
    "samples": 5,
    "seed": 0,
    "steps": 0,
    "initial": "vertex:0",
    "out": None,
    "format": "json",
    "tol_spectrum": 1e-8,
    "tol_construct": 1e-10,
}

# Construction-exact identities (ladder algebra, involutions, the two
# eigenbasis constructions) are held to a tighter tolerance than the
# composite ones gated by --tol-construct.
EXACT_TOL = 1e-12


class InputError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqwalk",
        description="Simulate the magnetic hypercube walk and verify its spectral properties.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    parser.add_argument("--task", choices=TASKS, help=f"what to run (default {DEFAULTS['task']})")
    parser.add_argument("--n", type=int, help="walk order: vertices are subsets of {0,...,n}")
    parser.add_argument(
        "--coin",
        help="builtin coin: grover | hadamard-partition | random | random:<d>",
    )
    parser.add_argument("--coin-file", help="JSON coin system file (re-validated on load)")
    parser.add_argument(
        "--nu",
        help="magnetic potential: null | random | comma-separated phases in [-pi,pi]",
    )
    parser.add_argument("--samples", type=int, help="random potentials for verify-stability")
    parser.add_argument("--seed", type=int, help="seed for the single experiment generator")
    parser.add_argument("--steps", type=int, help="number of steps for simulate")
    parser.add_argument(
        "--initial",
        help="initial state: vertex:<sigma>[:<coin>] | uniform:<sigma> | eigen:<sigma>:<k>",
    )
    parser.add_argument("--out", help="report file path (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--tol-spectrum", type=float, help="tolerance for spectral set checks")
    parser.add_argument("--tol-construct", type=float, help="tolerance for composite residual checks")
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
    if merged["format"] not in ("json", "csv"):
        raise InputError(f"format must be json or csv, got '{merged['format']}'")
    if merged["format"] == "csv" and merged["task"] not in ("simulate", "spectrum"):
        raise InputError("csv output is only available for simulate and spectrum")
    return merged


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_types(cfg: dict) -> None:
    """Reject a field whose JSON type is wrong; normalize the numeric ones.

    Integer fields take integers and integral floats (3.0 reads as 3), never
    booleans; tolerances take positive finite numbers; nu takes a spec
    string or, for n=0, a bare number.  A null leaves a field unset, which
    the later checks reject where it is required.
    """
    for field, minimum in (("n", 0), ("samples", 2), ("steps", 0), ("seed", 0)):
        value = cfg[field]
        if value is None and field == "n":
            continue  # taken from the coin file
        if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
            raise InputError(f"field '{field}' must be an integer, got {json.dumps(value)}")
        cfg[field] = int(value)
        if cfg[field] < minimum:
            raise InputError(f"field '{field}' must be >= {minimum}, got {cfg[field]}")
    for field in ("tol_spectrum", "tol_construct"):
        value = cfg[field]
        if not (_is_number(value) and 0 < value <= sys.float_info.max):
            raise InputError(
                f"field '{field}' must be a positive finite number, got {json.dumps(value)}"
            )
        cfg[field] = float(value)
    for field in ("task", "coin", "coin_file", "initial", "out", "format"):
        if not (cfg[field] is None or isinstance(cfg[field], str)):
            raise InputError(f"field '{field}' must be a string, got {json.dumps(cfg[field])}")
    if not (cfg["nu"] is None or isinstance(cfg["nu"], str) or _is_number(cfg["nu"])):
        raise InputError(f"field 'nu' must be a string or a number, got {json.dumps(cfg['nu'])}")


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


def _run_simulate(cfg, rng) -> tuple[int, dict | str]:
    cs = _build_coin(cfg, rng)
    nu = _build_nu(cfg, rng)
    op = evolution_operator(nu, cs)
    state = _build_initial(cfg, nu, cs)
    distributions = [position_distribution(state)]
    for _ in range(cfg["steps"]):
        state = step(op, state)
        distributions.append(position_distribution(state))
    distributions = np.array(distributions)

    if cfg["format"] == "csv":
        header = ["step"] + [f"p_{sigma}" for sigma in range(op.dim_fock)]
        lines = [",".join(header)]
        for t, dist in enumerate(distributions.tolist()):
            lines.append(",".join([str(t), *map(float.__repr__, dist)]))
        return 0, "\n".join(lines) + "\n"

    report = {
        "task": "simulate",
        "config": _config_echo(cfg, cs),
        "distributions": distributions,
        # rows [re, im]
        "final_state": state.vector.view(float).reshape(-1, 2),
        "final_t": state.t,
    }
    return 0, report


def _run_spectrum(cfg, rng) -> tuple[int, dict | str]:
    cs = _build_coin(cfg, rng)
    nu = _build_nu(cfg, rng)
    spectrum = walk_point_spectrum(nu, cs, cluster_tol=cfg["tol_spectrum"])

    if cfg["format"] == "csv":
        lines = ["re,im,arg,mult"]
        for entry in spectrum.to_json_dict()["eigenvalues"]:
            lines.append(
                f"{entry['re']!r},{entry['im']!r},{entry['arg']!r},{entry['mult']}"
            )
        return 0, "\n".join(lines) + "\n"

    report = {
        "task": "spectrum",
        "config": _config_echo(cfg, cs),
        "spectrum": spectrum.to_json_dict(),
    }
    return 0, report


def _run_verify_point(cfg, rng) -> tuple[int, dict]:
    cs = _build_coin(cfg, rng)
    nu = _build_nu(cfg, rng)
    check = verify_point_spectrum_theorem(nu, cs, tol=cfg["tol_spectrum"])
    report = {
        "task": "verify-point",
        "config": _config_echo(cfg, cs),
        "passed": check.passed,
        "hausdorff_distance": check.hausdorff_distance,
        "multiset_passed": check.multiset_passed,
        "walk_spectrum": check.walk_spectrum.to_json_dict(),
        "union_set": check.union_set.to_json_dict(),
        "union_multiset": check.union_multiset.to_json_dict(),
    }
    return (0 if check.passed else 1), report


def _run_verify_aev(cfg, rng) -> tuple[int, dict]:
    cs = _build_coin(cfg, rng)
    nu = _build_nu(cfg, rng)
    check = verify_approximate_spectrum_theorem(nu, cs, tol=cfg["tol_spectrum"])
    report = {
        "task": "verify-aev",
        "config": _config_echo(cfg, cs),
        "passed": check.passed,
        "hausdorff_distance": check.hausdorff_distance,
        "max_witness_residual": check.max_witness_residual,
        "matches_point_check": check.matches_point_check,
        "walk_spectrum": check.walk_spectrum.to_json_dict(),
        "union_set": check.union_set.to_json_dict(),
        "union_multiset": check.union_multiset.to_json_dict(),
    }
    return (0 if check.passed else 1), report


def _run_verify_stability(cfg, rng) -> tuple[int, dict]:
    cs = _build_coin(cfg, rng)
    report_obj = verify_spectral_stability(
        cs, samples=cfg["samples"], rng=rng, tol=cfg["tol_spectrum"]
    )
    report = {
        "task": "verify-stability",
        "config": _config_echo(cfg, cs),
        "passed": report_obj.passed,
        "samples": report_obj.samples,
        "max_pairwise_hausdorff": report_obj.max_pairwise_hausdorff,
        "max_operator_difference": report_obj.max_operator_difference,
        "spectra": [rep.to_json_dict() for rep in report_obj.spectra],
    }
    return (0 if report_obj.passed else 1), report


def _involution_residuals(n: int, nu: MagneticPotential) -> dict:
    eye = sp.identity(dimension(n), dtype=complex, format="csr")
    square = adjoint = 0.0
    for j in range(n + 1):
        xi = magnetic_shift(n, j, nu)
        # np.maximum, unlike max, keeps a NaN residual
        square = float(np.maximum(square, np.abs((xi @ xi - eye).toarray()).max()))
        adjoint = float(np.maximum(adjoint, np.abs((xi - xi.conj().T).toarray()).max()))
    return {
        "square_residual": square,
        "self_adjoint_residual": adjoint,
        "passed": square <= EXACT_TOL and adjoint <= EXACT_TOL,
    }


def _eigenbasis_residuals(n: int, nu: MagneticPotential, tol: float) -> dict:
    dim = dimension(n)
    basis = magnetic_basis_change(nu)
    gram = float(np.abs(basis.conj().T @ basis - np.eye(dim)).max())

    eigen_rel = 0.0
    indices = np.arange(dim)
    for j in range(n + 1):
        signs = np.where((indices >> j) & 1 == 1, 1.0, -1.0)
        xi = magnetic_shift(n, j, nu)
        # np.maximum, unlike max, keeps a NaN residual
        eigen_rel = float(
            np.maximum(eigen_rel, np.abs(xi @ basis - basis * signs[None, :]).max())
        )

    construction_gap = 0.0
    via_products = xi_hat_vacuum_columns(nu) / np.sqrt(dim)
    for sigma in range(dim):
        via_product = via_products[:, sigma]
        via_formula = magnetic_basis_vector(sigma, nu)
        construction_gap = float(
            np.maximum(construction_gap, np.abs(via_product - via_formula).max())
        )

    return {
        "gram_residual": float(gram),
        "eigen_relation_residual": float(eigen_rel),
        "construction_agreement": float(construction_gap),
        "passed": gram <= tol and eigen_rel <= tol and construction_gap <= EXACT_TOL,
    }


def _run_verify_all(cfg, rng) -> tuple[int, dict]:
    cs = _build_coin(cfg, rng)
    nu = _build_nu(cfg, rng)
    n = cs.n
    tol_c = cfg["tol_construct"]
    tol_s = cfg["tol_spectrum"]

    checks: dict[str, dict] = {}

    car = verify_car(n)
    checks["car"] = {
        "max_residual": car.max_residual,
        "passed": car.passed(EXACT_TOL),
    }

    coin_report = validate_coin_system(cs, tol=tol_c)
    checks["coin"] = {
        "mutual_annihilation": coin_report.mutual_annihilation,
        "sum_unitarity": coin_report.sum_unitarity,
        "passed": coin_report.passed(tol_c),
    }

    checks["involution"] = _involution_residuals(n, nu)
    checks["eigenbasis"] = _eigenbasis_residuals(n, nu, tol_c)

    op = evolution_operator(nu, cs)
    intertwining = intertwining_check(op)
    checks["intertwining"] = {
        "max_vector_residual": intertwining.max_vector_residual,
        "off_block_mass": intertwining.off_block_mass,
        "max_block_mismatch": intertwining.max_block_mismatch,
        "passed": intertwining.passed(tol_c),
    }

    point = verify_point_spectrum_theorem(nu, cs, tol=tol_s)
    checks["point_spectrum"] = {
        "hausdorff_distance": point.hausdorff_distance,
        "multiset_passed": point.multiset_passed,
        "passed": point.passed,
    }

    aev = verify_approximate_spectrum_theorem(nu, cs, tol=tol_s)
    checks["approximate_spectrum"] = {
        "hausdorff_distance": aev.hausdorff_distance,
        "max_witness_residual": aev.max_witness_residual,
        "matches_point_check": aev.matches_point_check,
        "passed": aev.passed,
    }

    stability = verify_spectral_stability(cs, samples=cfg["samples"], rng=rng, tol=tol_s)
    checks["spectral_stability"] = {
        "max_pairwise_hausdorff": stability.max_pairwise_hausdorff,
        "max_operator_difference": stability.max_operator_difference,
        "passed": stability.passed,
    }

    all_passed = all(entry["passed"] for entry in checks.values())
    report = {
        "task": "verify-all",
        "config": _config_echo(cfg, cs),
        "checks": checks,
        "passed": all_passed,
    }
    return (0 if all_passed else 1), report


_RUNNERS = {
    "simulate": _run_simulate,
    "spectrum": _run_spectrum,
    "verify-point": _run_verify_point,
    "verify-aev": _run_verify_aev,
    "verify-stability": _run_verify_stability,
    "verify-all": _run_verify_all,
}


def _render(value, level: int) -> str:
    """JSON text of ``value`` at indent ``level``, ndarrays as nested lists.

    The text is byte for byte what ``json.dumps(indent=2, sort_keys=True)``
    writes for the payload with its arrays converted by ``tolist``; that
    encoder is pure Python once ``indent`` is set, so float arrays are
    rendered in bulk instead.
    """
    if isinstance(value, np.ndarray):
        return _render_array(value, level)
    pad = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{json.dumps(key)}: {_render(item, level + 1)}"
            for key, item in sorted(value.items())
        )
        return "{" + pad + ("," + pad).join(items) + close + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + pad + ("," + pad).join(_render(item, level + 1) for item in value) + close + "]"
    return json.dumps(value)


def _render_array(arr: np.ndarray, level: int) -> str:
    """Nested-list JSON text of an array at indent ``level``.

    The values are joined by C-level string joins, axis by axis from the
    innermost: the separator between two neighbours along an axis closes
    the brackets of every deeper axis, writes the comma, and opens them
    again.
    """
    if arr.dtype.kind != "f" or arr.size == 0 or not np.isfinite(arr).all():
        # empty rows print as "[]" and json spells non-finite values its own way
        return _render(arr.tolist(), level)
    pads = ["\n" + "  " * (level + k) for k in range(arr.ndim + 1)]

    def head(axis: int) -> str:  # opening brackets of ``axis`` and deeper
        return "".join("[" + pads[k + 1] for k in range(axis, arr.ndim))

    def tail(axis: int) -> str:  # closing brackets of ``axis`` and deeper
        return "".join(pads[k] + "]" for k in reversed(range(axis, arr.ndim)))

    text = map(float.__repr__, arr.ravel().tolist())
    for axis in reversed(range(arr.ndim)):
        sep = tail(axis + 1) + "," + pads[axis + 1] + head(axis + 1)
        text = map(sep.join, zip(*[iter(text)] * arr.shape[axis]))
    return head(0) + next(text) + tail(0)


def _emit(payload: dict | str, out: str | None) -> None:
    if isinstance(payload, dict):
        text = _render(payload, 0) + "\n"
    else:
        text = payload
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if path.parent and not path.parent.exists():
        raise InputError(f"output directory does not exist: {path.parent}")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run(cfg: dict) -> int:
    """Run a resolved experiment config; returns the process exit code."""
    rng = np.random.default_rng(cfg["seed"])
    code, payload = _RUNNERS[cfg["task"]](cfg, rng)
    _emit(payload, cfg["out"])
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigensolverError as exc:
        print(f"internal numerical failure: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
