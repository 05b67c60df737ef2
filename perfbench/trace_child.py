"""Traced child: wraps the package's functions from outside, runs one
CLI call or the ladder driver, and writes the recorded spans at exit.

    python perfbench/trace_child.py SPANS_JSON cli <infodelay arguments...>
    python perfbench/trace_child.py SPANS_JSON ladder '<inputs as JSON>'

Before the run starts, every module attribute that callers look up
(for example infodelay.cli.simulate, infodelay.normal_form.hopf_candidates,
infodelay.stability.cubic_roots) is replaced by a wrapper, and methods
are replaced on their class. A wrapper records [name, parent span
index, start, end, quantities] in memory. A call that re-enters the
span it is already inside (Trajectory.__call__ on an array calls itself
per point) is not recorded again. A target the package no longer has
is listed under "missing" instead of failing the run.

The spans file holds {"spans": [...], "counters": {...}, "missing": {...}}.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

# span name = <module under infodelay>.<attribute path>
TARGETS = (
    "cli.main",
    "cli.parse_config",
    "cli.run",
    "model.equilibria",
    "model.coexistence",
    "cubic.cubic_roots",
    "stability.char_coeffs",
    "stability.hopf_candidates",
    "normal_form.compute_normal_form",
    "integrator.simulate",
    "integrator.simulate_distributed",
    "integrator.Trajectory.__call__",
    "integrator.cycle_metrics",
    "integrator.fft_period",
    "integrator.Trajectory.to_csv",
    "plots.trajectory_plots",
)
DROPPED_MESSAGE = "dropping crossing candidate"


def _steps(fn, args, kwargs, result, exc) -> dict:
    """Steps taken by an integrator call, also when it diverged."""
    if exc is None:
        return {"steps": len(result.states) - 1, "diverged": 0}
    if not hasattr(exc, "time"):
        return {}
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    s, nd = bound.arguments["params"].s, bound.arguments["steps_per_delay"]
    step = s / nd if s > 0.0 else 1.0 / nd
    return {"steps": round(exc.time / step), "diverged": 1}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# span name -> quantities of one call, from (fn, args, kwargs, result, exception)
MEASURES = {
    "integrator.simulate": _steps,
    "integrator.simulate_distributed": _steps,
    "integrator.Trajectory.__call__": lambda f, a, k, r, e: {"points": int(np.size(a[1]))},
    "integrator.cycle_metrics": lambda f, a, k, r, e: {"rows": len(a[0].states)},
    "integrator.Trajectory.to_csv": lambda f, a, k, r, e: {
        "bytes": _file_bytes([a[1]]) if e is None else 0},
    "plots.trajectory_plots": lambda f, a, k, r, e: {
        "bytes": _file_bytes(r) if e is None else 0},
    "normal_form.compute_normal_form": lambda f, a, k, r, e: {
        "failed": int(isinstance(e, (ValueError, ArithmeticError)))},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"dropped": 0, "crossing_points": 0}
        self.missing: dict[str, str] = {}
        self._crossing_keys: set[int] = set()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        measure = MEASURES.get(name)
        hopf = name == "stability.hopf_candidates"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if exc is not None:
                    span[4]["error"] = type(exc).__name__
                if measure is not None:
                    try:
                        span[4].update(measure(fn, args, kwargs, result, exc))
                    except Exception as err:  # a renamed argument must not fail the run
                        span[4]["measure_error"] = repr(err)
                if hopf and result:
                    # points are distinct argument sets that have a crossing
                    self._crossing_keys.add(hash(repr((args, kwargs))))
                    self.counters["crossing_points"] = len(self._crossing_keys)
        return wrapper

    def install(self) -> None:
        for name in TARGETS:
            short, _, path = name.partition(".")
            owner_name, _, attr = path.rpartition(".")
            try:
                module = importlib.import_module(f"infodelay.{short}")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError) as err:
                self.missing[name] = f"infodelay.{short}.{path} not found ({err!r})"
                continue
            wrapper = self.wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "infodelay" or mod_name.startswith("infodelay."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters,
                                    "missing": self.missing}), encoding="utf-8")


class _DropCounter(logging.Handler):
    def __init__(self, counters: dict):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        if DROPPED_MESSAGE in record.getMessage():
            self.counters["dropped"] += 1


def main(argv: list[str]) -> int:
    spans_path, kind, args = Path(argv[0]), argv[1], argv[2:]
    import infodelay  # noqa: F401  (loads every submodule before wrapping)

    tracer = Tracer()
    tracer.install()
    logging.getLogger("infodelay").addHandler(_DropCounter(tracer.counters))
    try:
        if kind == "cli":
            return importlib.import_module("infodelay.cli").main(args)
        return importlib.import_module("ladder").main(args)  # sits beside this file
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
