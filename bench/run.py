"""End-to-end benchmark of the mqwalk CLI tasks, with a traced run per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {simulate,spectrum,verify} --seed N \
        --seconds S --trace {0,1}

One client runs CLI tasks in a closed loop, each in a fresh process started
the way a user starts ``mqwalk`` (``bench/launch.py`` imports
``mqwalk.cli`` from ``src/`` and calls its ``main``), with BLAS threads
capped at the number of usable cores.  A run attempts whole rounds of its
workload's tasks (see ``inputs.py``) until S seconds of tasks have run.
Outputs are checked afterwards, outside the timed part (see ``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every task runs twice, untraced and then traced (spans around
each layer, see ``spans.py``); the run reports per-task layer metrics and
the tracing overhead, and the two reports of each config must be identical
byte for byte.  Untraced runs do not repeat a config, which keeps a run of
each workload under a minute.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from inputs import SIMULATE_INITIAL_SIGMA, SIMULATE_STEPS, WORKLOADS, Task, round_tasks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Every process must have ended this long after the run starts, so a run
# exits within three minutes even when a task hangs.
RUN_DEADLINE_S = 165.0

# An untraced run measures set-up at least this often: when its tasks are
# fewer, extra processes run the round's configs and stop where computing
# would begin.
SETUP_SAMPLES = 5

# per-layer metric -> span name; each gives <metric>_s and <metric>_calls
LAYER_SPANS = {
    "walk.apply": "walk.WalkOperator.apply",
    "walk.position_distribution": "walk.position_distribution",
    "walk.dense": "walk.WalkOperator.dense",
    "walk.intertwining_check": "walk.intertwining_check",
    "spectra.unitary_eigenvalues": "spectra.unitary_eigenvalues",
    "linalg.eigh_dense": "linalg.eigh_dense",
    "linalg.eigh_coin": "linalg.eigh_coin",
    "linalg.eigvals": "linalg.eigvals",
    "linalg.unitarity_residual": "linalg.unitarity_residual",
    "spectra.coin_union_spectrum": "spectra.coin_union_spectrum",
    "spectra.hausdorff_distance": "spectra.hausdorff_distance",
    "spectra.verify_point": "spectra.verify_point_spectrum_theorem",
    "spectra.verify_aev": "spectra.verify_approximate_spectrum_theorem",
    "spectra.verify_stability": "spectra.verify_spectral_stability",
    "magnetic.xi_hat": "magnetic.xi_hat",
    "magnetic.magnetic_shift": "magnetic.magnetic_shift",
    "magnetic.magnetic_basis_change": "magnetic.magnetic_basis_change",
    "magnetic.magnetic_basis_vector": "magnetic.magnetic_basis_vector",
    "coin.validate_coin_system": "coin.validate_coin_system",
    "coin.algebraic_sum": "coin.algebraic_sum",
    "fock.verify_car": "fock.verify_car",
    "cli.emit": "cli._emit",
}
# eigh spans are named by matrix side from the one wrapper of scipy.linalg.eigh
INSTALLED_AS = {"linalg.eigh_dense": "linalg.eigh", "linalg.eigh_coin": "linalg.eigh"}


@dataclass
class Outcome:
    task: Task
    wall_s: float
    setup_s: float | None
    rss_mb: float
    code: int
    report: Path
    sidecar: dict
    # no report, or an exit code other than 0 and 1: verify-all exits 1
    # with a report when a check fails, which the checks count as a wrong
    # answer rather than a failed task
    failed: bool


class Runner:
    """Launches CLI tasks one at a time and measures each from outside."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.count = 0

    def launch(self, task: Task, mode: str) -> Outcome:
        """Run ``task`` in a fresh process; ``mode`` is a ``launch.py`` MODE."""
        self.count += 1
        stem = self.workdir / f"task{self.count}"
        report, sidecar, log = (stem.with_suffix(s) for s in (".json", ".side.json", ".log"))
        argv = [sys.executable, str(BENCH / "launch.py"), str(sidecar), mode,
                str(task.side), str(task.d), "--", *task.argv, "--out", str(report)]
        with open(log, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            code, rusage = _wait(proc, self.deadline - start)
            wall = time.monotonic() - start
        side = json.loads(sidecar.read_text()) if sidecar.is_file() else {}
        if "mqwalk" in side and not side["mqwalk"].startswith(str(ROOT / "src")):
            raise RuntimeError(f"the task imported mqwalk from {side['mqwalk']}, not from src/")
        mark = side.get("setup_end")
        if code not in (0, 1) or (mode == "setup" and code != 0):
            sys.stderr.write(f"{task.label} exited {code}: {log.read_text()[-2000:]}\n")
        return Outcome(task, wall, None if mark is None else mark - start,
                       rusage.ru_maxrss * 1024 / 1e6, code, report, side,
                       code not in (0, 1) or not report.is_file())


def _wait(proc: subprocess.Popen, timeout: float):
    """Exit code and resource usage of ``proc``; kills it after ``timeout`` s."""
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], max(timeout, 1.0))[0]:
            proc.send_signal(signal.SIGKILL)
        _, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def check_outcome(out: Outcome) -> list[str]:
    """Independent checks of one task's report."""
    try:
        report = json.loads(out.report.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"the report is not JSON: {exc}"]
    task = out.task
    if task.kind == "verify-all":
        return checks.check_verify(report, out.code)
    problems = [] if out.code == 0 else [f"exit code {out.code}"]
    ops = checks.coin_ops(task)
    if task.kind == "simulate":
        return problems + checks.check_simulate(
            report, ops, task.nu, SIMULATE_INITIAL_SIGMA, SIMULATE_STEPS)
    return problems + checks.check_spectrum(report, ops, task.nu)


def layer_totals(spans: list) -> dict[str, list]:
    """Span name -> [calls, inclusive seconds, self seconds].

    Inclusive time counts only calls not nested in a call of the same name;
    self time is a span's duration minus that of its direct children.
    """
    children = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    totals: dict[str, list] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (t1 - t0) - children[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry[1] += t1 - t0
    return totals


def layer_metrics(plain: list[Outcome], traced: list[Outcome]) -> tuple[dict, dict]:
    """Per-task layer metrics of the traced tasks, and the totals by span name."""
    count = len(traced)
    by_name: dict[str, list] = {}
    amplitudes = 0.0
    for out in traced:
        for name, (calls, incl, own) in layer_totals(out.sidecar.get("spans", [])).items():
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
            if name == LAYER_SPANS["walk.apply"]:
                amplitudes += calls * out.task.side
    installed = set.intersection(*(set(o.sidecar.get("installed", [])) for o in traced))
    metrics = {}
    absent = 0
    for metric, span in LAYER_SPANS.items():
        if INSTALLED_AS.get(metric, span) not in installed:
            absent += 1
            print(f"absent: {span} (metric {metric})")
        calls, incl, _ = by_name.get(span, (0, 0.0, 0.0))
        metrics[f"{metric}_s"] = (incl / count, "s")
        metrics[f"{metric}_calls"] = (calls / count, "count")
    apply_s = by_name.get(LAYER_SPANS["walk.apply"], (0, 0.0))[1]
    metrics["walk.apply_mamp_per_s"] = (amplitudes / apply_s / 1e6 if apply_s else 0.0, "Mamp/s")
    own = by_name.get(LAYER_SPANS["spectra.unitary_eigenvalues"], (0, 0.0, 0.0))[2]
    metrics["spectra.unitary_eigenvalues_self_s"] = (own / count, "s")
    metrics["cli.report_bytes"] = (statistics.fmean(o.report.stat().st_size for o in traced), "bytes")
    metrics["cli.setup_s"] = (statistics.fmean(o.setup_s for o in traced), "s")
    traced_p50 = statistics.median(o.wall_s for o in traced)
    metrics["trace.task_s_p50"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - statistics.median(o.wall_s for o in plain), "s")
    metrics["trace.absent_names"] = (absent, "count")
    return metrics, by_name


def end_to_end_metrics(done: list[Outcome], everything: list[Outcome], busy_s: float,
                       setups: list[float]) -> dict:
    return {
        "tasks_per_min": (len(done) / busy_s * 60.0, "1/min"),
        "task_s_p50": (statistics.median(o.wall_s for o in done), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in everything), "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"blas_threads={runner.threads} numpy={np.__version__}")
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    busy = 0.0
    rnd = 0
    while True:
        tasks = round_tasks(workload, seed, rnd, workdir)
        start = time.monotonic()
        for task in tasks:
            plain.append(runner.launch(task, "plain"))
            if trace:
                traced.append(runner.launch(task, "traced"))
        busy += time.monotonic() - start
        rnd += 1
        if busy >= seconds:
            break
    probes = [] if trace else [runner.launch(plain[i % len(plain)].task, "setup")
                               for i in range(SETUP_SAMPLES - len(plain))]

    problems: list[str] = []
    for out in probes:
        if out.code != 0 or out.setup_s is None:
            problems.append(f"{out.task.label}: set-up probe exited {out.code}")
    for a, b in zip(plain, traced):
        if not (a.failed or b.failed):
            problems += checks.check_identical(a.report.read_bytes(), b.report.read_bytes())
    for out in plain + traced:
        if not out.failed and out.setup_s is None:
            problems.append(f"{out.task.label}: no call ended set-up (see spans.SETUP_END)")
    for tag, outs in (("plain", plain), ("traced", traced), ("setup-probe", probes)):
        for out in outs:
            setup = "-" if out.setup_s is None else f"{out.setup_s:.3f}"
            print(f"task {out.task.label} {tag} wall_s={out.wall_s:.3f} setup_s={setup} "
                  f"rss_mb={out.rss_mb:.1f} exit={out.code}")
    for out in plain:
        if not out.failed:
            problems += [f"{out.task.label}: {p}" for p in check_outcome(out)]
        out.report.unlink(missing_ok=True)  # simulate reports are ~31 MB each
    for problem in problems:
        print(f"problem: {problem}")

    attempted = plain + traced
    done = [o for o in plain if not (o.failed or o.setup_s is None)]
    if trace:
        ok = [o for o in traced if not (o.failed or o.setup_s is None)]
        metrics, by_name = layer_metrics(done, ok) if done and ok else ({}, {})
        for name, (calls, incl, own) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
            print(f"span {name} calls={calls} incl_s={incl:.4f} self_s={own:.4f}")
    else:
        setups = [o.setup_s for o in done + probes if o.setup_s is not None]
        metrics = end_to_end_metrics(done, plain, busy, setups) if done else {}
    return {
        "correct": not problems and bool(metrics),
        "attempted": len(attempted),
        "failed": sum(o.failed for o in attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mqwalk" / "cli.py").is_file():
        print(f"error: no mqwalk source at {ROOT / 'src' / 'mqwalk'}; "
              "run from the root of an mqwalk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # checks.coin_ops rebuilds built-in coins
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
