"""Span tracing around the public functions of each cellsoc module.

The wrappers are installed from outside the package: every module attribute
(or class attribute, for methods) that is bound to a traced function is
replaced for the duration of the traced pass and restored afterwards. A
function is often bound under several names -- ``cellsoc.estimator.predict``
and ``cellsoc.multicell.predict`` are separate bindings of one function -- so
each binding is patched where callers look it up.

Spans (name, start, end, parent, phase) are kept in flat in-memory columns
and written out once, when the run ends. Self time, counts and totals are
derived from the spans afterwards, never while the program runs.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

# (module, qualifier, function names); a qualifier names the class that owns
# a method, None a module-level function.
TRACED = (
    ("curves", "MonotoneCurve", ("eval", "eval_and_slope", "integrate")),
    ("model", None, ("output_voltage", "soc_from_vqst", "simulate", "reconstruct_v_dyn",
                     "coulomb_count")),
    ("estimator", None, ("predict", "correct", "run_filter")),
    ("multicell", "MultiCellEkf", ("tick", "run")),
    ("identification", None, ("identify", "segment_trace", "fit_instantaneous",
                              "fit_rc_groups", "decompose", "build_q_curve",
                              "estimate_capacitance")),
    ("traceio", None, ("load_trace", "save_trace", "save_soc_rows", "load_cell_parameters",
                       "save_cell_parameters")),
    ("cli", None, ("main",)),
    ("profiles", None, ("build_profile", "max_frequency")),
)

# Functions that run only while inputs are generated; their spans attribute
# setup_s, so their metrics come from the set-up phase.
SETUP_ONLY = ("profiles.build_profile", "profiles.max_frequency")

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, _, fns in TRACED for fn in fns)

# Counters taken from call arguments and results, all measured from outside.
COUNTERS = (
    ("estimator.predict.substeps", "count"),
    ("model.output_voltage.calls_per_sample", "ratio"),
    ("identification.fit_rc_groups.iterations", "count"),
    ("multicell.stale_services", "count"),
    ("model.out_of_range_warnings", "count"),
    ("model.saturation_warnings", "count"),
    ("traceio.bytes_read", "B"),
    ("traceio.bytes_written", "B"),
    ("tracing.overhead_pct", "%"),
)

PASS_SPAN = "bench.pass"
SETUP, MEASURE = 0, 1


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans around every traced binding while installed."""

    def __init__(self):
        self.names = [PASS_SPAN] + list(TRACED_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("h")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.phase_col = array("b")
        self._stack: list[int] = []
        self.phase = SETUP
        self.counters: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def begin_measure(self) -> None:
        """Tag later spans as measured and count from zero."""
        self.phase = MEASURE
        self.counters = dict.fromkeys(("estimator.predict.substeps",
                                       "identification.fit_rc_groups.iterations",
                                       "traceio.bytes_read", "traceio.bytes_written"), 0)

    # -- span recording -------------------------------------------------
    def _open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_col.append(self.phase)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._ids[name])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        name_id = self._ids[name]
        open_, close = self._open, self._close

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, n: int) -> None:
        if self.phase == MEASURE:
            self.counters[key] += n

    def _hooks(self):
        count = self._count

        def substeps(args, kwargs, _result):
            params = _arg(args, kwargs, 1, "params")
            dt = _arg(args, kwargs, 3, "dt")
            count("estimator.predict.substeps",
                  max(1, int(math.ceil(dt / params.dt_guard - 1e-12))))

        def iterations(_args, _kwargs, result):
            count("identification.fit_rc_groups.iterations", int(result[1].iterations))

        def read(args, kwargs, _result):
            count("traceio.bytes_read", _file_size(_arg(args, kwargs, 0, "path")))

        def written(args, kwargs, _result):
            count("traceio.bytes_written", _file_size(_arg(args, kwargs, 1, "path")))

        return {
            "estimator.predict": substeps,
            "identification.fit_rc_groups": iterations,
            "traceio.load_trace": read,
            "traceio.load_cell_parameters": read,
            "traceio.save_trace": written,
            "traceio.save_soc_rows": written,
            "traceio.save_cell_parameters": written,
        }

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Patch every binding of every traced function in the cellsoc package.

        A traced name the package does not define is skipped; it reports zero calls.
        """
        if self._patched:
            return
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cellsoc" or n.startswith("cellsoc.")) and m is not None]
        for mod_name, owner, fns in TRACED:
            home = sys.modules[f"cellsoc.{mod_name}"]
            # A method is patched on its class, under every alias it has there
            # (MonotoneCurve.__call__ is eval); a function in every module.
            targets = [getattr(home, owner)] if owner else modules
            defined = vars(targets[0]) if owner else vars(home)
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = defined.get(fn_name)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, hooks.get(name))
                for target in targets:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._patched.append((target, attr, value))
                            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patched):
            setattr(target, attr, value)
        self._patched.clear()

    # -- derived metrics ------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "phase": np.frombuffer(self.phase_col, dtype=np.int8).copy(),
        }

    def layer_stats(self) -> dict:
        """Per traced name: calls, mean self time (us) and total time (s).

        Functions listed in SETUP_ONLY are summarised over the set-up phase,
        all others over the measured phase. Self time is a span's duration
        minus the durations of its direct children (children nest inside
        their parent on one thread, so their union is their sum).
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        n = dur.size
        child = np.zeros(n)
        has_parent = a["parent"] >= 0
        if n:
            np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        stats = {}
        for name in TRACED_NAMES:
            phase = SETUP if name in SETUP_ONLY else MEASURE
            mask = (a["name_id"] == self._ids[name]) & (a["phase"] == phase)
            calls = int(np.count_nonzero(mask))
            stats[name] = {
                "calls": calls,
                "self_us": float(self_ns[mask].mean() / 1e3) if calls else 0.0,
                "total_s": float(dur[mask].sum() / 1e9),
            }
        return stats

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
