"""Benchmark of the hardylab command line: timed, checked against references, traced.

Run from the repository root:

    python3 perfbench/run.py                      # every workload: table + JSON
    python3 perfbench/run.py --workload decay-pole --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh interpreter (worker.py) with ``src`` on
PYTHONPATH, single-threaded BLAS and no HARDYLAB_THREADS.  With ``--trace 0``
the last line of stdout is one JSON object with the end-to-end metrics;
with ``--trace 1`` half of the time runs untraced and half traced, and the
metrics are the per-layer ones.  README.md in this directory describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("decay-pole", "decay-tabulated", "spectra", "ensemble")

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
# reported with the end-to-end metrics but not bounded: the raw times and the
# host's calibration ratio, the worst case, and fractions that are zero on a
# correct run
REPORTED_UNITS = {
    "wall_s_raw": "s",
    "wall_s_tail_raw": "s",
    "calibration_ratio": "ratio",
    "accuracy_digits_worst": "digits",
    "failed_frac": "fraction",
    "wrong_frac": "fraction",
    "err_cover_frac": "fraction",
}

SETUP_CODE = "import time; t0 = time.perf_counter(); import hardylab.cli; print(time.perf_counter() - t0)"
SETUP_REPEATS = {"full": 5, "tiny": 2}
DEADLINE_S = 170.0


def child_env() -> dict:
    """The repository's src on PYTHONPATH, as the tests run it; one BLAS thread; no HARDYLAB_THREADS."""
    env = dict(os.environ)
    env.pop("HARDYLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(env: dict, repeats: int, timeout: float) -> list[float]:
    """Seconds to import hardylab.cli, each in a fresh interpreter."""
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=timeout, check=True,
            ).stdout
        )
        for _ in range(repeats)
    ]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_worker(workload: str, args, env: dict, timeout: float) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, "--work", str(work),
    ]
    if args.spans_out:
        cmd += ["--spans-out", str(Path(args.spans_out).resolve())]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def metrics_of(report: dict, trace: int) -> dict:
    if trace:
        values, units = report["per_layer"], tracing.PER_LAYER_UNITS
    else:
        values, units = report["end_to_end"], END_TO_END_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_table(report: dict, trace: int):
    name = report["workload"]
    rows = dict(metrics_of(report, trace))
    if not trace:
        rows.update(
            {k: {"value": report["end_to_end"][k], "unit": u} for k, u in REPORTED_UNITS.items()
             if k in report["end_to_end"]}
        )
    for metric, m in rows.items():
        print(f"{name:16s} {metric:36s} {m['value']:>14.6g} {m['unit']}")
    t = report["tail"]
    print(
        f"{name:16s} passes {report['passes']}, wall_s_tail = p{t['percentile']:.0f} with {t['beyond']} beyond; "
        f"{report['attempted']} invocations, {report['failed']} failed; "
        f"{report['checked']} values checked, {report['wrong']} wrong"
    )
    for note, count in list(report["notes"].items())[:5]:
        print(f"{name:16s} check, {count} passes: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, default=None, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="timed work per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small inputs, for tests")
    ap.add_argument("--spans-out", default=None, help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "hardylab" / "cli.py").is_file():
        print(f"perfbench: no hardylab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = child_env()
    setup = []
    if not args.trace:
        setup = measure_setup(env, SETUP_REPEATS[args.size], timeout=60)
    worker_timeout = max(10.0, DEADLINE_S - (time.monotonic() - started))
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        report = run_worker(name, args, env, timeout=worker_timeout)
        report["end_to_end"]["setup_s"] = statistics.median(setup) if setup else None
        report["setup_samples_s"] = setup
        report["provenance"]["git_commit"] = git_commit()
        reports.append(report)
        print(json.dumps({"report": report}))
        print_table(report, args.trace)

    summaries = [
        {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics_of(r, args.trace)}
        for r in reports
    ]
    if args.workload:
        print(json.dumps(summaries[0]))
    else:
        print(json.dumps(dict(zip(names, summaries))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
