"""Per-layer spans for the traced run, recorded from outside the package.

The traced run replaces, for its own duration, the names one ``hardylab``
module takes from another (the boundary table below) with wrappers that
record a span: name, start, end and the enclosing span.  A layer's self time
is its spans' durations minus the time covered by their child spans; the
time of each CLI invocation not covered by any library span is ``cli``'s
self time, so the self times of a pass add up to the pass.

Where the caller reaches the callee through a shared object (a module
attribute such as ``tr.transition_probability``, or a class method), the
wrapper records only calls made from the caller module, so calls inside the
callee's own module are not counted as crossings.  A binding the code under
test no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, caller module, holder of the binding, attribute)
BOUNDARIES = (
    ("states.construct", "hardylab.cli", "hardylab.cli", "make_lorentzian_state"),
    ("states.construct", "hardylab.cli", "hardylab.cli", "make_lorentzian_observable"),
    ("states.evolve", "hardylab.transition", "hardylab.transition", "evolve_state"),
    ("states.evolve", "hardylab.transition", "hardylab.transition", "evolve_observable"),
    ("hardy.criterion_analytic", "hardylab.states", "hardylab.states", "hardy_criterion"),
    ("hardy.criterion_sampled", "hardylab.cli", "hardylab.cli", "hardy_criterion"),
    ("hardy.dispersion", "hardylab.cli", "hardylab.cli", "dispersion_residual"),
    ("hardy.dispersion", "hardylab.cli", "hardylab.hardy", "hilbert_transform"),
    ("hardy.causal_transform", "hardylab.cli", "hardylab.cli", "causal_transform"),
    ("sampled.csv_read", "hardylab.cli", "hardylab.sampled:SampledComplexFunction", "from_csv"),
    ("sampled.csv_write", "hardylab.cli", "hardylab.sampled:SampledComplexFunction", "to_csv"),
    ("sampled.estimate_tail", "hardylab.cli", "hardylab.cli", "estimate_tail"),
    ("transition.smatrix_load", "hardylab.cli", "hardylab.transition:SMatrixModel", "from_json_dict"),
    ("transition.curve", "hardylab.cli", "hardylab.transition", "transition_probability"),
    ("transition.fit", "hardylab.cli", "hardylab.transition", "fit_exponential_rate"),
    ("transition.csv_write", "hardylab.cli", "hardylab.transition", "amplitude_results_to_csv"),
    ("quadrature.pole_kernel", "hardylab.transition", "hardylab.transition", "rational_halfline_fourier"),
    ("quadrature.oscillatory", "hardylab.transition", "hardylab.transition", "oscillatory_integral"),
    ("quadrature.fourier_sampled", "hardylab.hardy", "hardylab.hardy", "fourier_integral_sampled"),
    ("quadrature.tail", "hardylab.hardy", "hardylab.hardy", "cauchy_tail_correction"),
    ("quadrature.tail", "hardylab.hardy", "hardylab.hardy", "squared_tail_integral"),
    ("ensemble.sample", "hardylab.cli", "hardylab.ensemble", "sample_decay_ensemble"),
    ("ensemble.csv_write", "hardylab.cli", "hardylab.ensemble", "events_to_csv"),
    ("ensemble.csv_write", "hardylab.cli", "hardylab.ensemble:SurvivalCurve", "to_csv"),
    ("ensemble.csv_read", "hardylab.cli", "hardylab.ensemble", "events_from_csv"),
    ("ensemble.survival", "hardylab.cli", "hardylab.ensemble", "survival_curve"),
    ("ensemble.compare", "hardylab.cli", "hardylab.ensemble", "compare_to_theory"),
)

ROOT = "cli"


def _curve_counts(args, result):
    methods = [getattr(getattr(r, "method", None), "value", None) for r in result]
    return {"transition.points": len(methods), "transition.quadrature_points": methods.count("quadrature")}


# work counted at a boundary, from its arguments and result
COUNTERS = {
    "sampled.csv_read": lambda args, result: {"sampled.csv_rows": len(result)},
    "sampled.csv_write": lambda args, result: {"sampled.csv_rows": len(args[0])},
    "quadrature.oscillatory": lambda args, result: {"quadrature.oscillatory_points": len(args[0])},
    "transition.curve": _curve_counts,
    "ensemble.sample": lambda args, result: {"ensemble.events": len(result)},
}

_SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))
_COUNT_NAMES = (
    "sampled.csv_rows", "quadrature.oscillatory_points", "transition.points", "ensemble.events",
)

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.invocations": "count",
    "cli.errors": "count",
    **{
        f"{name}{suffix}": unit
        for name in _SPAN_NAMES
        for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_errors", "count"))
    },
    **{name: "count" for name in _COUNT_NAMES},
    "transition.route_quadrature_frac": "fraction",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.absent_boundaries": "count",
}


class Recorder:
    """Spans kept in memory as parallel arrays, grouped into passes."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.failed = array("b")
        self.counts: dict[str, int] = defaultdict(int)
        self.passes: list[tuple[int, int, float]] = []
        self._stack: list[int] = []
        self._pass_first = 0

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, error: bool = False):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if error:
            self.failed[idx] = 1

    def count(self, amounts: dict):
        for key, n in amounts.items():
            self.counts[key] += n

    def begin_pass(self):
        self._pass_first = len(self.start)

    def end_pass(self, seconds: float):
        self.passes.append((self._pass_first, len(self.start), seconds))

    def write(self, path):
        """One JSON line per span: name, start and end in ns, index of the parent span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]) + "\n")

    def summary(self) -> dict:
        """Per-pass means of self time, calls and errors at every boundary."""
        import numpy as np

        passes = max(len(self.passes), 1)
        n_names = len(self.names)
        name_id = np.array(self.name_id, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - start
        parent = np.array(self.parent, dtype=np.int64)
        failed = np.array(self.failed, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = np.bincount(name_id, weights=dur - child, minlength=n_names)
        calls = np.bincount(name_id, minlength=n_names)
        errors = np.bincount(name_id, weights=failed, minlength=n_names)
        by_name = {
            name: (self_ns[i] / 1e9 / passes, calls[i] / passes, errors[i] / passes)
            for i, name in enumerate(self.names)
        }

        out = {}
        for name in (ROOT, *_SPAN_NAMES):
            s, c, e = by_name.get(name, (0.0, 0.0, 0.0))
            if name == ROOT:
                out.update({"cli.self_s": s, "cli.invocations": c, "cli.errors": e})
            else:
                out.update({f"{name}_s": s, f"{name}_calls": c, f"{name}_errors": e})
        for key in _COUNT_NAMES:
            out[key] = self.counts.get(key, 0) / passes
        points = self.counts.get("transition.points", 0)
        out["transition.route_quadrature_frac"] = (
            self.counts.get("transition.quadrature_points", 0) / points if points else 0.0
        )
        root = ~nested
        pass_s = [seconds for _, _, seconds in self.passes]
        covered = [dur[first:stop][root[first:stop]].sum() / 1e9 for first, stop, _ in self.passes]
        out["trace.pass_s"] = sum(pass_s) / passes
        out["trace.unattributed_s"] = (sum(pass_s) - sum(covered)) / passes
        out["trace.spans"] = dur.size / passes
        return out


def _wrap(fn, name, guard, recorder, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if guard is not None and sys._getframe(1).f_globals.get("__name__") != guard:
            return fn(*args, **kwargs)
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(idx, error=True)
            raise
        recorder.close(idx)
        if counter is not None:
            try:
                recorder.count(counter(args, result))
            except (AttributeError, TypeError):
                recorder.count({f"{name}.uncounted": 1})
        return result

    return traced


def _holder(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracing:
    """Installs the boundary wrappers on enter and restores the originals on exit."""

    def __init__(self, recorder: Recorder, boundaries=BOUNDARIES):
        self.recorder = recorder
        self.boundaries = boundaries
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, caller, holder_path, attr in self.boundaries:
            try:
                holder = _holder(holder_path)
                raw = vars(holder)[attr]
            except (ImportError, AttributeError, KeyError):
                raw = None
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not callable(fn):
                self.absent.append(f"{name}: {caller} -> {holder_path}.{attr}")
                continue
            guard = None if holder_path == caller else caller
            wrapped = _wrap(fn, name, guard, self.recorder, COUNTERS.get(name))
            setattr(holder, attr, kind(wrapped) if kind else wrapped)
            self._patched.append((holder, attr, raw))
        return self

    def __exit__(self, *exc):
        for holder, attr, raw in reversed(self._patched):
            setattr(holder, attr, raw)
        self._patched.clear()
        return False
