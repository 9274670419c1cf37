"""Spans around the program's layers, recorded from outside the program.

Runs inside the CLI process that ``launch.py`` starts.  ``install`` wraps
the public callables of the mqwalk modules, the two ``WalkOperator``
methods that do the work, the CLI's report writer, and the numpy/scipy
eigensolvers the program calls.  A wrapper replaces the binding in every
loaded mqwalk module that holds the same object, so names imported with
``from .x import y`` are caught too.  Each call becomes a span ``[name,
start, end, parent]`` kept in memory and written out when the task ends.

Untraced runs install only ``Recorder.mark``: a timestamp taken at the
first call into a compute entry point, which ends the task's set-up.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("fock", "magnetic", "coin", "walk", "spectra", "cli")

# (module, owner, attribute, span name); owner None means a module function
EXTRA_TARGETS = (
    ("mqwalk.walk", "WalkOperator", "apply", "walk.WalkOperator.apply"),
    ("mqwalk.walk", "WalkOperator", "dense", "walk.WalkOperator.dense"),
    ("mqwalk.cli", None, "_emit", "cli._emit"),
    ("mqwalk._linalg", None, "unitarity_residual", "linalg.unitarity_residual"),
    ("numpy.linalg", None, "eigvals", "linalg.eigvals"),
    # its spans are named by matrix side, see Recorder.wrap
    ("scipy.linalg", None, "eigh", "linalg.eigh"),
)

# The first call to any of these ends set-up: imports, config resolution
# and input construction (coin, potential, initial state) come before it.
SETUP_END = (
    "walk.position_distribution",
    "walk.step",
    "walk.evolve",
    "walk.WalkOperator.apply",
    "walk.WalkOperator.dense",
    "spectra.unitary_eigenvalues",
    "spectra.walk_point_spectrum",
    "spectra.coin_union_spectrum",
    "spectra.verify_point_spectrum_theorem",
    "spectra.verify_approximate_spectrum_theorem",
    "spectra.verify_spectral_stability",
    "fock.verify_car",
)


def _mqwalk_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "mqwalk" or name.startswith("mqwalk.")]


def _targets() -> dict:
    """Span name -> (owner object, attribute, original callable)."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"mqwalk.{layer}")
        if mod is None:
            continue
        names = getattr(mod, "__all__", None) or [k for k in vars(mod) if not k.startswith("_")]
        for attr in names:
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = (mod, attr, obj)
    for module, owner, attr, span in EXTRA_TARGETS:
        holder = sys.modules.get(module)
        if holder is not None and owner is not None:
            holder = getattr(holder, owner, None)
        obj = getattr(holder, attr, None) if holder is not None else None
        if callable(obj):
            found[span] = (holder, attr, obj)
    return found


def _replace(holder, attr: str, original, wrapper) -> None:
    setattr(holder, attr, wrapper)
    for mod in _mqwalk_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Recorder:
    """Spans of one task, kept in memory."""

    def __init__(self, walk_side: int, coin_side: int):
        self.walk_side = walk_side
        self.coin_side = coin_side
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.setup_end: float | None = None
        self.on_setup_end = None  # called once, when a plain run's set-up ends

    def _eigh_name(self, args, kwargs) -> str:
        a = args[0] if args else kwargs.get("a")
        side = getattr(a, "shape", (0,))[0]
        if side == self.walk_side:
            return "linalg.eigh_dense"
        if side == self.coin_side:
            return "linalg.eigh_coin"
        return "linalg.eigh_other"

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        named = name == "linalg.eigh"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._eigh_name(args, kwargs) if named else name, time.monotonic(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()

        return traced

    def mark(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = time.monotonic()
                if self.on_setup_end is not None:
                    self.on_setup_end()
            return fn(*args, **kwargs)

        return marked

    def install(self, traced: bool) -> list[str]:
        """Wrap the targets; returns the span names that could be installed."""
        targets = _targets()
        for name, (holder, attr, original) in targets.items():
            if traced:
                _replace(holder, attr, original, self.wrap(name, original))
            elif name in SETUP_END:
                _replace(holder, attr, original, self.mark(original))
        return sorted(targets)

    def finish(self) -> dict:
        if self.spans:
            starts = [s[1] for s in self.spans if s[0] in SETUP_END]
            self.setup_end = min(starts) if starts else None
        return {"setup_end": self.setup_end, "spans": self.spans}
