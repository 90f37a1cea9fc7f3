"""The benchmark's own tests, at the tiny size.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import references as ref
import run
import tracing
import worker
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS) == set(wl.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# what each workload must exercise, and what it must leave alone
LAYER_EXPECTATIONS = {
    "decay-pole": {"quadrature.pole_kernel_calls": ">0", "quadrature.oscillatory_calls": "=0",
                   "states.evolve_calls": ">0", "hardy.criterion_analytic_calls": ">0"},
    "decay-tabulated": {"quadrature.oscillatory_calls": ">0", "quadrature.pole_kernel_calls": "=0",
                        "transition.route_quadrature_frac": ">0"},
    "spectra": {"hardy.dispersion_calls": ">0", "quadrature.fourier_sampled_calls": ">0",
                "sampled.csv_rows": ">0", "transition.curve_calls": "=0", "ensemble.sample_calls": "=0"},
    "ensemble": {"ensemble.events": ">0", "ensemble.csv_read_calls": ">0",
                 "transition.curve_calls": "=0", "quadrature.fourier_sampled_calls": "=0"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    done = bench("--workload", name, "--size", "tiny", "--seconds", "0.5", "--seed", "7", "--trace", str(trace),
                 "--spans-out", str(spans))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[0])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    assert report["passes"] == len(report["samples_s"]) >= 1
    if name != "decay-tabulated":
        assert result["correct"] and result["failed"] == 0, report["notes"]

    if trace:
        # self times of all layers, cli included, add up to the traced pass time
        self_total = sum(v for k, v in values.items() if k.endswith("_s") and not k.startswith("trace."))
        assert self_total == pytest.approx(values["trace.pass_s"], rel=0.02, abs=2e-3)
        assert abs(values["trace.unattributed_s"]) <= 0.02 * values["trace.pass_s"] + 2e-3
        assert values["trace.absent_boundaries"] == 0
        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        assert len(rows) == pytest.approx(values["trace.spans"] * len(report["traced_samples_s"]))
        assert all(r[0] == tracing.ROOT or f"{r[0]}_s" in values for r in rows)
        assert all(r[1] <= r[2] and -1 <= r[3] < i for i, r in enumerate(rows))
        for metric, want in LAYER_EXPECTATIONS[name].items():
            assert (values[metric] > 0) if want == ">0" else (values[metric] == 0), metric
    else:
        e2e = report["end_to_end"]
        assert {"failed_frac", "wrong_frac"} <= set(e2e)
        assert ("err_cover_frac" in e2e) == name.startswith("decay")
        assert e2e["failed_frac"] == result["failed"] / result["attempted"]
        if wl.WORKLOADS[name].calibrated:
            assert len(report["calibration"]["around_pass_s"]) == report["passes"]
            assert values["wall_s"] == statistics.median(report["samples_nominal_s"])
        else:
            assert report["calibration"] is None and values["wall_s"] == e2e["wall_s_raw"]
        prov = report["provenance"]
        assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads", "git_commit"} <= set(prov)
        assert prov["thread_env"]["HARDYLAB_THREADS"] is None
        assert prov["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def _run_pass(name, work, seed=5):
    from hardylab import cli

    plan = wl.WORKLOADS[name].prepare(wl.pass_rng(seed, 1, 0), work, "tiny")
    outcomes = [worker.invoke(cli.main, args) for args in plan.invocations]
    return plan, outcomes


def test_decay_check_accepts_the_pole_route_and_flags_a_doubled_phase(tmp_path):
    plan, outcomes = _run_pass("decay-pole", tmp_path)
    v = plan.check(outcomes)
    assert all(v.invocation_ok) and v.wrong == 0 and v.checked > 0

    cfg = json.loads((tmp_path / "decay.json").read_text())
    peak, fwhm = cfg["state"]["a"], cfg["state"]["b"]
    params = cfg["smatrix"]["channels"][0]["params"]
    e_r, gamma = params["e_r"], params["gamma"]
    t = np.linspace(0.0, wl.T_MAX, cfg["t_points"])
    a2 = np.array([ref.decay_amplitude(2.0 * ti, peak, fwhm, e_r, gamma) for ti in t])
    with open(tmp_path / "decay.csv", "w", encoding="utf-8") as fh:
        fh.write("t,re_a,im_a,p,err\n")
        for ti, a in zip(t, a2):
            fh.write(",".join(repr(float(x)) for x in (ti, a.real, a.imag, abs(a) ** 2, 1e-13)) + "\n")
    v = plan.check(outcomes)  # the same exit code and fitted rate, a P(2t) curve
    assert not v.invocation_ok[0]
    assert v.wrong >= 1
    assert any("a(2t)" in note for note in v.notes)


def test_spectra_check_flags_perturbed_outputs(tmp_path):
    plan, outcomes = _run_pass("spectra", tmp_path)
    v = plan.check(outcomes)
    assert all(v.invocation_ok) and v.wrong == 0

    report = json.loads(outcomes[2].stdout.strip().splitlines()[-1])
    report["values"] = [1.1 * x for x in report["values"]]
    outcomes[2] = wl.Outcome(0, json.dumps(report) + "\n", "")
    v = plan.check(outcomes)
    assert v.invocation_ok == [True, True, False] and v.wrong == len(wl.OFFSETS)


def test_ensemble_check_flags_one_changed_bit(tmp_path):
    plan, outcomes = _run_pass("ensemble", tmp_path)
    v = plan.check(outcomes)
    assert all(v.invocation_ok) and v.wrong == 0

    lines = (tmp_path / "events.csv").read_text().splitlines()
    i, t_prep, t_reg, t = lines[1].split(",")
    t_bumped = np.nextafter(float(t), np.inf)
    lines[1] = ",".join([i, t_prep, t_reg, repr(float(t_bumped))])
    (tmp_path / "events.csv").write_text("\n".join(lines) + "\n")
    v = plan.check(outcomes)
    assert not v.invocation_ok[0] and v.wrong >= 1


def test_missing_binding_is_reported_absent_and_originals_restored():
    import hardylab.cli
    import hardylab.states

    bogus = tracing.BOUNDARIES + (("states.gone", "hardylab.cli", "hardylab.cli", "no_such_function"),)
    recorder = tracing.Recorder()
    with tracing.Tracing(recorder, bogus) as installed:
        assert hardylab.cli.make_lorentzian_state is not hardylab.states.make_lorentzian_state
    assert installed.absent == ["states.gone: hardylab.cli -> hardylab.cli.no_such_function"]
    assert hardylab.cli.make_lorentzian_state is hardylab.states.make_lorentzian_state
    summary = recorder.summary()
    assert set(tracing.PER_LAYER_UNITS) - set(summary) == {"trace.overhead_s", "trace.absent_boundaries"}


def test_guarded_binding_records_only_calls_from_the_caller_module():
    from hardylab import SimplePole, hardy, uniform_grid
    from hardylab.models import HalfPlane

    f = SimplePole(1j, -1j).sample(uniform_grid(-20.0, 20.0, 257))
    recorder = tracing.Recorder()
    with tracing.Tracing(recorder):
        hardy.hilbert_transform(f, HalfPlane.UPPER, "im")  # called from this test, not from the CLI
    assert recorder.summary()["hardy.dispersion_calls"] == 0


def test_rescale_divides_each_pass_by_the_kernel_times_around_it():
    nominal = calibration.NOMINAL_S
    kernels = [[nominal], [nominal, 3 * nominal, 2 * nominal]]
    assert calibration.rescale([1.0, 2.0], kernels) == pytest.approx([1.0, 1.0])
    assert calibration.ratio(kernels) == pytest.approx(1.5)
    assert len(calibration.run(0.0)) == 1
    assert sum(calibration.run(0.2)) >= calibration.SHARE * 0.2


def test_tail_is_the_order_statistic_with_ten_samples_above():
    assert worker.tail(list(range(1, 101))) == {"value": 90, "percentile": 90.0, "beyond": 10, "samples": 100}
    assert worker.tail([3.0, 1.0, 2.0])["value"] == 3.0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "decay-pole", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
