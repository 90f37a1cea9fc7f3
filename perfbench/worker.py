"""Run one workload in this process and print its measurements as one JSON line.

run.py starts this script in a fresh interpreter, with ``src`` on PYTHONPATH
and single-threaded BLAS; run.py documents the command line.  Each pass runs
its ``hardylab`` invocations in-process through the click entry point; only
those invocations are timed.  Inputs are written before and outputs checked
after the timed region.  Right before and after each untraced pass of a
calibrated workload, the calibration kernel (calibration.py) measures the
host's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import calibration
import tracing
import workloads as wl

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HARDYLAB_THREADS")
TAIL_BEYOND = 10


def invoke(main, args: list[str], recorder: tracing.Recorder | None = None) -> wl.Outcome:
    """One CLI invocation, as `hardylab <args>` would run it; exit code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = recorder.open(tracing.ROOT) if recorder else None
        try:
            main.main(args=args, prog_name="hardylab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # the CLI let an exception escape: a failed invocation
            raised = f"{type(exc).__name__}: {exc}"
        finally:
            if recorder:
                recorder.close(span, error=code != 0)
    return wl.Outcome(code, out.getvalue(), raised or err.getvalue())


@dataclass
class Tally:
    """Pass times and check results of one phase."""

    samples: list[float] = field(default_factory=list)
    calibration_s: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    max_err: float = 0.0
    pass_digits: list[float] = field(default_factory=list)
    err_points: int = 0
    err_covered: int = 0
    items: int = 0
    notes: dict[str, int] = field(default_factory=dict)

    def add(self, seconds: float, items: int, v: wl.Verdict):
        self.samples.append(seconds)
        self.items = items
        self.attempted += len(v.invocation_ok)
        self.failed += v.invocation_ok.count(False)
        self.checked += v.checked
        self.wrong += v.wrong
        self.max_err = max(self.max_err, v.max_err)
        self.pass_digits.append(wl.accuracy_digits(v.max_err))
        self.err_points += v.err_points
        self.err_covered += v.err_covered
        for note in v.notes:
            self.notes[note] = self.notes.get(note, 0) + 1

    def merge(self, other: "Tally"):
        for name in ("attempted", "failed", "checked", "wrong", "err_points", "err_covered"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_err = max(self.max_err, other.max_err)
        self.pass_digits.extend(other.pass_digits)
        for note, n in other.notes.items():
            self.notes[note] = self.notes.get(note, 0) + n


def run_phase(main, workload, seed, first, seconds, work, size, recorder=None) -> tuple[Tally, int]:
    """Passes with fresh inputs until `seconds` of timed work; returns the tally and next index.

    On a calibrated workload, the calibration kernel runs right before and
    after each untraced pass; the one before is sized by the previous pass.
    """
    tally, index = Tally(), first
    calibrate = workload.calibrated and not recorder
    while not tally.samples or sum(tally.samples) < seconds:
        plan = workload.prepare(wl.pass_rng(seed, 1, index), work, size)
        if recorder:
            recorder.begin_pass()
        if calibrate:
            before = calibration.run(tally.samples[-1] if tally.samples else 0.0)
        t0 = time.perf_counter()
        outcomes = [invoke(main, args, recorder) for args in plan.invocations]
        elapsed = time.perf_counter() - t0
        if recorder:
            recorder.end_pass(elapsed)
        if calibrate:
            tally.calibration_s.append(before + calibration.run(elapsed))
        tally.add(elapsed, plan.items, plan.check(outcomes))
        index += 1
    return tally, index


def tail(samples: list[float]) -> dict:
    """Highest order statistic with TAIL_BEYOND samples above it.

    With too few samples for that statistic to lie above the median, the maximum.
    """
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > 2 * TAIL_BEYOND else len(s) - 1
    return {"value": s[k], "percentile": 100.0 * (k + 1) / len(s), "beyond": len(s) - 1 - k, "samples": len(s)}


def _blas_threads() -> int | None:
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        from importlib.metadata import version

        click_version = version("click")
    except ImportError:
        click_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": click_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", type=Path, required=True, help="scratch directory, removed at exit")
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    from hardylab import cli

    workload = wl.WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    try:
        # warm-up: first-call imports and caches, at the small size, and the kernel; not counted
        warm = workload.prepare(wl.pass_rng(args.seed, 0, 0), args.work, "tiny")
        warm.check([invoke(cli.main, a) for a in warm.invocations])
        calibration.kernel()

        result = {"workload": args.workload, "size": args.size, "seed": args.seed, "seconds": args.seconds}
        if args.trace:
            plain, index = run_phase(cli.main, workload, args.seed, 0, args.seconds / 2, args.work, args.size)
            recorder = tracing.Recorder()
            with tracing.Tracing(recorder) as installed:
                traced, _ = run_phase(
                    cli.main, workload, args.seed, index, args.seconds / 2, args.work, args.size, recorder
                )
            per_layer = recorder.summary()
            per_layer["trace.overhead_s"] = statistics.median(traced.samples) - statistics.median(plain.samples)
            per_layer["trace.absent_boundaries"] = len(installed.absent)
            result.update(
                per_layer=per_layer,
                traced_samples_s=traced.samples,
                absent=installed.absent,
                uncounted=sorted(k for k in recorder.counts if k.endswith(".uncounted")),
            )
            if args.spans_out:
                recorder.write(args.spans_out)
            total = Tally()
            total.merge(plain)
            total.merge(traced)
        else:
            plain, _ = run_phase(cli.main, workload, args.seed, 0, args.seconds, args.work, args.size)
            total = plain
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    samples = plain.samples
    if workload.calibrated:
        samples = calibration.rescale(plain.samples, plain.calibration_s)
    wall = statistics.median(samples)
    stat = tail(samples)
    e2e = {
        "wall_s": wall,
        "wall_s_tail": stat["value"],
        "items_per_s": plain.items / wall,
        "wall_s_raw": statistics.median(plain.samples),
        "wall_s_tail_raw": tail(plain.samples)["value"],
        "peak_rss_mb": rss_mb,
        "accuracy_digits": statistics.median(total.pass_digits),
        "accuracy_digits_worst": wl.accuracy_digits(total.max_err),
        "failed_frac": total.failed / total.attempted,
        "wrong_frac": total.wrong / total.checked if total.checked else 0.0,
    }
    if workload.calibrated:
        e2e["calibration_ratio"] = calibration.ratio(plain.calibration_s)
    if total.err_points:
        e2e["err_cover_frac"] = total.err_covered / total.err_points
    result.update(
        correct=total.failed == 0 and total.wrong == 0,
        attempted=total.attempted,
        failed=total.failed,
        checked=total.checked,
        wrong=total.wrong,
        items_per_pass=plain.items,
        items=workload.items,
        passes=len(plain.samples),
        samples_s=plain.samples,
        samples_nominal_s=samples if workload.calibrated else None,
        calibration={"nominal_s": calibration.NOMINAL_S, "around_pass_s": plain.calibration_s}
        if workload.calibrated
        else None,
        tail=stat,
        end_to_end=e2e,
        notes=total.notes,
        provenance=provenance(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
