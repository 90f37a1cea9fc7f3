"""CLI contract: exit codes, config precedence, deterministic outputs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hardylab

from hardylab import (
    HalfPlane,
    SampledComplexFunction,
    SimplePole,
    estimate_tail,
    hilbert_transform,
    uniform_grid,
)
from hardylab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def lorentzian_csv(tmp_path):
    f = SimplePole(1j, -1j).sample(uniform_grid(-50, 50, 4096))
    path = tmp_path / "lorentzian.csv"
    f.to_csv(path)
    return path, f


def decay_config(tmp_path, **overrides):
    cfg = {
        "state": {"a": 2.0, "b": 5.0, "coefficients": [{"l": 0, "l3": 0, "re": 1.0}]},
        "observable": {"a": 2.0, "b": 5.0, "coefficients": [{"l": 0, "l3": 0, "re": 1.0}]},
        "smatrix": {
            "channels": [
                {"l": 0, "l3": 0, "kind": "resonance_pole", "params": {"e_r": 2.0, "gamma": 0.2}}
            ]
        },
        "t_min": 0.0,
        "t_max": 40.0,
        "t_points": 201,
    }
    cfg.update(overrides)
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(cfg))
    return path


def _tabulated_breit_wigner(e_r, gamma, e_max, n):
    """delta(E) with e^{2i delta} = ResonancePole(e_r, gamma), on energies graded toward e_r."""
    w = gamma / 2.0
    u = np.linspace(np.arcsinh(-e_r / w), np.arcsinh((e_max - e_r) / w), n)
    e = e_r + w * np.sinh(u)
    return {"grid": e.tolist(), "re": np.arctan2(w, e_r - e).tolist(), "im": [0.0] * n}


TWO_CHANNELS = [{"l": 0, "l3": 0, "re": 1.0}, {"l": 1, "l3": 0, "re": 1.0}]

# decay_config overrides and extra flags of each decay run
DECAY_CASES = {
    "pole-fit": ({}, ["--fit"]),
    "two-channels": (
        {
            "state": {"a": 2.0, "b": 5.0, "coefficients": TWO_CHANNELS},
            "observable": {"a": 2.0, "b": 1.0, "coefficients": TWO_CHANNELS},
            "smatrix": {
                "channels": [{"l": 1, "l3": 0, "kind": "resonance_pole", "params": {"e_r": 2.0, "gamma": 0.5}}]
            },
        },
        [],
    ),
    "constant-phase": (
        {"smatrix": {"channels": [{"l": 0, "l3": 0, "kind": "phase_shift", "params": {"delta": 0.6}}]}},
        [],
    ),
    "quadrature": ({"t_max": 20.0, "t_points": 9}, ["--method", "quadrature"]),
    "tabulated": (
        {
            "t_max": 20.0,
            "t_points": 9,
            "smatrix": {
                "channels": [
                    {
                        "l": 0,
                        "l3": 0,
                        "kind": "phase_shift",
                        "params": {"delta_samples": _tabulated_breit_wigner(2.0, 0.2, 260.0, 2001)},
                    }
                ]
            },
        },
        [],
    ),
}


def decay_outputs(runner, case):
    """sha256 of decay's output CSV and of its stdout, run in the current directory."""
    overrides, flags = DECAY_CASES[case]
    decay_config(Path("."), **overrides)
    result = runner.invoke(main, ["decay", "--config", "decay.json", "-o", "p.csv", *flags])
    assert result.exit_code == 0, result.output
    digest = lambda data: hashlib.sha256(data).hexdigest()[:16]
    return digest(Path("p.csv").read_bytes()), digest(result.stdout.encode())


# decay_outputs as the per-point route produced them: transition_amplitude
# rebuilding each channel's terms or integrand at every t
DECAY_DIGESTS = {
    "pole-fit": ("81d983bbecbab1a9", "611701e16ad4cc34"),
    "two-channels": ("662b60b36b8ff6a0", "0b595602efd9fe2f"),
    "constant-phase": ("7f9cee727199d763", "24d1cb7c55c16f03"),
    "quadrature": ("6e90a861f75b552b", "5acd53539307c5eb"),
    "tabulated": ("b91b305ed9faa2f6", "216e9010c0a44238"),
}


class TestKkCheck:
    def test_causal_fixture_passes(self, runner, lorentzian_csv, tmp_path):
        path, _ = lorentzian_csv
        out = tmp_path / "recon.csv"
        result = runner.invoke(main, ["kk-check", str(path), "--output", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output.splitlines()[-1])
        assert report["pass"] is True
        assert report["max_residual"] <= 1e-3
        recon = SampledComplexFunction.from_csv(out)
        assert len(recon) == 4096

    def test_output_holds_both_reconstructions(self, runner, lorentzian_csv, tmp_path):
        path, _ = lorentzian_csv
        out = tmp_path / "recon.csv"
        result = runner.invoke(main, ["kk-check", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        f = SampledComplexFunction.from_csv(path)
        f = f.with_tail(estimate_tail(f))
        re_from_im = hilbert_transform(f, HalfPlane.UPPER, "im").values.real
        im_from_re = hilbert_transform(f, HalfPlane.UPPER, "re").values.imag
        want = tmp_path / "want.csv"
        SampledComplexFunction(f.grid, re_from_im + 1j * im_from_re).to_csv(want)
        assert out.read_bytes() == want.read_bytes()

    def test_acausal_fixture_fails(self, runner, lorentzian_csv, tmp_path):
        path, f = lorentzian_csv
        bad = f.with_values(-f.values.real + 1j * f.values.imag)
        bad_path = tmp_path / "acausal.csv"
        bad.to_csv(bad_path)
        result = runner.invoke(main, ["kk-check", str(bad_path)])
        assert result.exit_code == 2
        report = json.loads(result.output.splitlines()[-1])
        assert report["max_residual"] >= 10 * 1e-3

    def test_malformed_csv_exit_1_with_line(self, runner, tmp_path):
        p = tmp_path / "broken.csv"
        p.write_text("x,re,im\n0.0,1.0,zzz\n")
        result = runner.invoke(main, ["kk-check", str(p)])
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_empty_file_exit_1(self, runner, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        result = runner.invoke(main, ["kk-check", str(p)])
        assert result.exit_code == 1


class TestCausalTransform:
    def test_matches_closed_form(self, runner, tmp_path):
        cfg = tmp_path / "ct.json"
        cfg.write_text(json.dumps({"signal": {"kind": "complex_exponential", "a": 1.0, "b": 0.5}}))
        out = tmp_path / "h.csv"
        result = runner.invoke(
            main, ["causal-transform", "--config", str(cfg), "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        h = SampledComplexFunction.from_csv(out)
        exact = SimplePole(1j, complex(-1.0, -0.5))(h.grid.astype(complex))
        assert np.max(np.abs(h.values - exact)) <= 1e-6

    def test_noncausal_input_exit_2(self, runner, tmp_path):
        t = np.linspace(-5, 10, 301)
        f = SampledComplexFunction(t, np.exp(-np.abs(t)) + 0j)
        p = tmp_path / "time.csv"
        f.to_csv(p)
        result = runner.invoke(
            main, ["causal-transform", "--input", str(p), "-o", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2


class TestHardyCheck:
    def test_model_pass_and_fail(self, runner, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "kind": "simple_pole",
                    "params": {"coefficient": {"re": 1, "im": 0}, "pole": {"re": 2, "im": 0.5}},
                }
            )
        )
        ok = runner.invoke(
            main, ["hardy-check", "--model", str(model), "--half-plane", "lower"]
        )
        assert ok.exit_code == 0, ok.output
        report = json.loads(ok.output.splitlines()[-1])
        assert report["verdict"] == "pass"
        bad = runner.invoke(
            main, ["hardy-check", "--model", str(model), "--half-plane", "upper"]
        )
        assert bad.exit_code == 2

    def test_needs_input_or_model(self, runner):
        result = runner.invoke(main, ["hardy-check"])
        assert result.exit_code == 1


class TestEvolve:
    def make_config(self, tmp_path, t):
        cfg = tmp_path / "evolve.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "state",
                    "lorentzian": {
                        "a": 2.0,
                        "b": 1.0,
                        "coefficients": [{"l": 0, "l3": 0, "re": 1.0}],
                    },
                    "time": t,
                }
            )
        )
        return cfg

    def test_forward_evolution(self, runner, tmp_path):
        cfg = self.make_config(tmp_path, 3.0)
        out = tmp_path / "wave.json"
        result = runner.invoke(main, ["evolve", "--config", str(cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        wave = json.loads(out.read_text())
        assert wave["channels"][0]["phase_time"] == 3.0

    def test_negative_time_exit_1(self, runner, tmp_path):
        cfg = self.make_config(tmp_path, 3.0)
        result = runner.invoke(main, ["evolve", "--config", str(cfg), "--time", "-1"])
        assert result.exit_code == 1

    def test_propagator_silences_negative_time(self, runner, tmp_path):
        cfg = self.make_config(tmp_path, -2.0)
        out = tmp_path / "wave.json"
        result = runner.invoke(
            main, ["evolve", "--config", str(cfg), "--propagator", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        wave = json.loads(out.read_text())
        assert wave["channels"][0]["model"]["kind"] == "rational_sum"
        assert wave["channels"][0]["model"]["params"]["terms"] == []

    def test_flag_overrides_config_time(self, runner, tmp_path):
        cfg = self.make_config(tmp_path, 3.0)
        out = tmp_path / "wave.json"
        result = runner.invoke(
            main, ["evolve", "--config", str(cfg), "--time", "7.0", "-o", str(out)]
        )
        assert result.exit_code == 0
        echoed = json.loads(result.output.splitlines()[0])
        assert echoed["config"]["time"] == 7.0
        wave = json.loads(out.read_text())
        assert wave["channels"][0]["phase_time"] == 7.0


class TestDecay:
    def test_fit_recovers_width(self, runner, tmp_path):
        cfg = decay_config(tmp_path, t_points=401)
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["decay", "--config", str(cfg), "--fit", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.splitlines()[-1])
        assert abs(summary["fit"]["rate"] - 0.2) <= 0.05 * 0.2
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_a,im_a,p,err"
        assert len(lines) == 402

    def test_single_point_range(self, runner, tmp_path):
        cfg = decay_config(tmp_path, t_min=0.0, t_max=0.0, t_points=1)
        out = tmp_path / "p.csv"
        result = runner.invoke(main, ["decay", "--config", str(cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 2

    def test_invalid_spec_exit_1(self, runner, tmp_path):
        cfg = decay_config(tmp_path)
        blob = json.loads(cfg.read_text())
        blob["state"]["b"] = 0.0
        cfg.write_text(json.dumps(blob))
        result = runner.invoke(main, ["decay", "--config", str(cfg), "-o", "x.csv"])
        assert result.exit_code == 1

    def test_negative_range_exit_1(self, runner, tmp_path):
        cfg = decay_config(tmp_path)
        result = runner.invoke(
            main, ["decay", "--config", str(cfg), "--t-min", "-3", "-o", "x.csv"]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_range_exit_1(self, runner, tmp_path, t_max):
        cfg = decay_config(tmp_path, t_points=3)
        out = tmp_path / "p.csv"
        result = runner.invoke(main, ["decay", "--config", str(cfg), "--t-max", t_max, "-o", str(out)])
        assert result.exit_code == 1
        assert "finite" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("case", list(DECAY_CASES))
    def test_outputs_are_byte_identical_to_the_per_point_route(self, runner, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        assert decay_outputs(runner, case) == DECAY_DIGESTS[case]


def ensemble_outputs(runner, scheme, seed):
    """sha256 of the events and survival files, compare's exit code and sha256 of its stdout.

    Runs in the current directory with relative paths, so stdout's config
    echo is the same wherever it runs.
    """
    t = np.linspace(0.0, 10.0, 81)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), np.exp(-0.7 * t).tolist()))
    Path("theory.csv").write_text("t,p\n" + rows)
    made = runner.invoke(
        main,
        [
            "ensemble", "--rate", "0.7", "--count", "2000", "--seed", str(seed),
            "--scheme", scheme, "--t0", "12.5", "--start", "3.0", "--step", "1.25",
            "--events-out", "events.csv", "--survival-out", "survival.csv",
        ],
    )
    assert made.exit_code == 0, made.output
    compared = runner.invoke(main, ["compare", "--events", "events.csv", "--theory", "theory.csv"])
    digest = lambda data: hashlib.sha256(data).hexdigest()[:16]
    return (
        digest(Path("events.csv").read_bytes()),
        digest(Path("survival.csv").read_bytes()),
        compared.exit_code,
        digest(compared.stdout.encode()),
    )


# ensemble_outputs as the per-record sampler (one numpy Philox generator per
# event) and the per-point survival loop produced them
ENSEMBLE_DIGESTS = {
    ('simultaneous', 0): ('5b9443ca1abf3135', '2c86658d40bdaef0', 0, '7f1799a3451c0240'),
    ('simultaneous', 1): ('eddd22639f3ba53a', 'b18eacdf65a2ed0b', 0, 'a4df6055b5fd750f'),
    ('simultaneous', 12345): ('472bc454eaf03f56', '16551fe1b60b33b8', 0, '2949035ab7bc3c1f'),
    ('simultaneous', 2**64 - 1): ('5c48ec20b9640261', '22fa5feb71eb0cc5', 0, 'de875364dfd8adc4'),
    ('sequential', 0): ('67055f5beedd5cbe', '2c86658d40bdaef0', 0, '7f1799a3451c0240'),
    ('sequential', 1): ('14fa1a321464342b', 'b18eacdf65a2ed0b', 0, 'a4df6055b5fd750f'),
    ('sequential', 12345): ('75742974279289bd', '16551fe1b60b33b8', 0, '2949035ab7bc3c1f'),
    ('sequential', 2**64 - 1): ('cef0fb8bf50fbc6e', '22fa5feb71eb0cc5', 0, 'de875364dfd8adc4'),
}


class TestEnsembleAndCompare:
    def test_demo_preset_and_determinism(self, runner, tmp_path):
        args = [
            "ensemble",
            "--rate", "0.5",
            "--count", "150",
            "--seed", "11",
            "--events-out", str(tmp_path / "ev1.csv"),
            "--survival-out", str(tmp_path / "s1.csv"),
        ]
        assert runner.invoke(main, args).exit_code == 0
        args2 = [a.replace("1.csv", "2.csv") if a.endswith(".csv") else a for a in args]
        assert runner.invoke(main, args2).exit_code == 0
        assert (tmp_path / "ev1.csv").read_bytes() == (tmp_path / "ev2.csv").read_bytes()
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
        surv_lines = (tmp_path / "s1.csv").read_text().splitlines()
        assert surv_lines[0] == "t,survival,err_lo,err_hi"
        assert len(surv_lines) == 151

    @pytest.mark.parametrize("case", list(ENSEMBLE_DIGESTS), ids=lambda c: f"{c[0]}-{c[1]}")
    def test_outputs_are_byte_identical_to_the_per_record_sampler(self, runner, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        assert ensemble_outputs(runner, *case) == ENSEMBLE_DIGESTS[case]

    def test_compare_self_consistent(self, runner, tmp_path):
        ev = tmp_path / "events.csv"
        assert (
            runner.invoke(
                main,
                [
                    "ensemble", "--rate", "0.5", "--count", "10000",
                    "--seed", "2026", "--events-out", str(ev),
                ],
            ).exit_code
            == 0
        )
        theory = tmp_path / "theory.csv"
        t = np.linspace(0.0, 8.0, 41)
        with open(theory, "w") as fh:
            fh.write("t,p\n")
            for tt, pp in zip(t, np.exp(-0.5 * t)):
                fh.write(f"{float(tt)!r},{float(pp)!r}\n")
        result = runner.invoke(
            main, ["compare", "--events", str(ev), "--theory", str(theory)]
        )
        assert result.exit_code == 0, result.output

    def test_compare_detects_wrong_rate(self, runner, tmp_path):
        ev = tmp_path / "events.csv"
        runner.invoke(
            main,
            [
                "ensemble", "--rate", "0.5", "--count", "10000",
                "--seed", "2026", "--events-out", str(ev),
            ],
        )
        theory = tmp_path / "theory.csv"
        t = np.linspace(0.0, 8.0, 41)
        with open(theory, "w") as fh:
            fh.write("t,p\n")
            for tt, pp in zip(t, np.exp(-1.0 * t)):
                fh.write(f"{float(tt)!r},{float(pp)!r}\n")
        result = runner.invoke(
            main, ["compare", "--events", str(ev), "--theory", str(theory)]
        )
        assert result.exit_code == 2

    def test_nan_theory_exit_1(self, runner, tmp_path):
        ev = tmp_path / "events.csv"
        made = runner.invoke(
            main, ["ensemble", "--rate", "0.5", "--count", "10", "--seed", "3", "--events-out", str(ev)]
        )
        assert made.exit_code == 0, made.output
        theory = tmp_path / "theory.csv"
        theory.write_text("t,p\n0.0,1.0\n1.0,nan\n")
        result = runner.invoke(main, ["compare", "--events", str(ev), "--theory", str(theory)])
        assert result.exit_code == 1
        assert "theory values must lie in [0, 1]" in result.output

    def test_tampered_events_exit_2_with_indices(self, runner, tmp_path):
        ev = tmp_path / "events.csv"
        runner.invoke(
            main,
            ["ensemble", "--rate", "0.5", "--count", "10", "--seed", "3",
             "--events-out", str(ev)],
        )
        lines = ev.read_text().splitlines()
        parts = lines[4].split(",")
        parts[2] = repr(float(parts[1]) - 1.0)
        parts[3] = repr(-1.0)
        lines[4] = ",".join(parts)
        ev.write_text("\n".join(lines) + "\n")
        theory = tmp_path / "theory.csv"
        theory.write_text("t,p\n0.0,1.0\n")
        result = runner.invoke(
            main, ["compare", "--events", str(ev), "--theory", str(theory)]
        )
        assert result.exit_code == 2
        assert "4" in result.output


class TestConfigEcho:
    def test_resolved_config_on_stdout(self, runner, lorentzian_csv):
        path, _ = lorentzian_csv
        result = runner.invoke(main, ["kk-check", str(path), "--tolerance", "0.01"])
        first = json.loads(result.output.splitlines()[0])
        assert first["command"] == "kk-check"
        assert first["config"]["tolerance"] == 0.01

    def test_file_value_used_when_no_flag(self, runner, lorentzian_csv, tmp_path):
        path, _ = lorentzian_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 0.5}))
        result = runner.invoke(main, ["kk-check", str(path), "--config", str(cfg)])
        first = json.loads(result.output.splitlines()[0])
        assert first["config"]["tolerance"] == 0.5


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal costs about 0.7 s of start-up; the FFT forms need only scipy.fft.
    # scipy.integrate and scipy.optimize (used only by the rational fit) add 0.2-0.3 s more.
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    heavy = ("scipy.signal", "scipy.integrate", "scipy.optimize")
    code = f"import sys, hardylab.cli; sys.exit(' '.join(m for m in {heavy!r} if m in sys.modules) or None)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, f"importing the CLI loaded {result.stderr.strip()}"
