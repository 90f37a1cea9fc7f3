"""Command-line front end.

Subcommands: kk-check, causal-transform, hardy-check, evolve, decay,
ensemble, compare.  Every run is deterministic given its resolved
configuration (flags override config-file values, which override defaults)
and echoes that configuration as JSON on stdout before the result summary.

Exit codes: 0 success, 1 input or configuration error, 2 a physics or
consistency violation was detected (acausal data, failed Hardy criterion,
registration before preparation, statistics inconsistent with theory).
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import ensemble as ens
from . import transition as tr
from .errors import (
    CausalityViolation,
    CsvFormatError,
    HardyLabError,
    NonCausalInput,
    PoleOnContinuationLine,
)
from .hardy import (
    CausalSignal,
    ComplexExponentialSignal,
    DampedSineSignal,
    causal_transform,
    dispersion_residual,
    hardy_criterion,
)
from .models import AnalyticModel, HalfPlane
from .sampled import SampledComplexFunction, _read_csv, _write_csv, estimate_tail, uniform_grid
from .states import (
    EnergyWaveFunction,
    LorentzianSpec,
    energy_distribution,
    evolve_observable,
    evolve_state,
    make_lorentzian_observable,
    make_lorentzian_state,
    retarded_propagator,
)

_INPUT_ERRORS = (
    CsvFormatError,
    FileNotFoundError,
    json.JSONDecodeError,
    KeyError,
    ValueError,  # includes InvalidSpec, NegativeTime, InvalidRate, ...
)
_PHYSICS_ERRORS = (CausalityViolation, NonCausalInput, PoleOnContinuationLine)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _PHYSICS_ERRORS as exc:
            click.echo(f"violation: {exc}", err=True)
            sys.exit(2)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except HardyLabError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(flag, cfg, key, default):
    """Precedence: explicit flag > config file > built-in default."""
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _echo_config(command, resolved):
    click.echo(json.dumps({"command": command, "config": resolved}, sort_keys=True))


def _half_plane(name: str) -> HalfPlane:
    return HalfPlane(name.lower())


@click.group()
@click.version_option(package_name="hardylab")
def main():
    """Hardy-space wave functions, semigroup evolution, and decay statistics."""


# ---------------------------------------------------------------------------
# kk-check
# ---------------------------------------------------------------------------

@main.command("kk-check")
@click.argument("input_csv", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--half-plane", "hp_flag", type=click.Choice(["upper", "lower"]), default=None)
@click.option("--tolerance", type=float, default=None)
@click.option("--output", "-o", type=click.Path(), default=None, help="reconstructed-part CSV")
@_handle_errors
def kk_check(input_csv, config_path, hp_flag, tolerance, output):
    """Check the dispersion relations on sampled boundary data.

    Reconstructs each part of INPUT_CSV from the other via the Hilbert
    transform and reports the peak-normalized residual on the central half
    of the grid.  Exit 0 when the residual is within tolerance, 2 otherwise.
    """
    cfg = _load_config(config_path)
    hp = _half_plane(_resolve(hp_flag, cfg, "half_plane", "upper"))
    tol = float(_resolve(tolerance, cfg, "tolerance", 1e-3))
    f = SampledComplexFunction.from_csv(input_csv)
    tail = estimate_tail(f)
    f = f.with_tail(tail)
    _echo_config(
        "kk-check",
        {
            "input": str(input_csv),
            "half_plane": hp.value,
            "tolerance": tol,
            "estimated_tail": {"p": tail.p, "c_re": tail.c.real, "c_im": tail.c.imag},
        },
    )
    report = dispersion_residual(f, hp)
    click.echo(
        json.dumps(
            {
                "residual_re": report.residual_re,
                "residual_im": report.residual_im,
                "max_residual": report.max_residual,
                "window": list(report.window),
                "pass": report.max_residual <= tol,
            }
        )
    )
    if output:
        report.reconstruction.to_csv(output)
    if report.max_residual > tol:
        sys.exit(2)


# ---------------------------------------------------------------------------
# causal-transform
# ---------------------------------------------------------------------------

def _signal_from_config(cfg: dict) -> CausalSignal:
    sig = cfg["signal"]
    kind = sig["kind"]
    if kind == "complex_exponential":
        return ComplexExponentialSignal(sig["a"], sig["b"])
    if kind == "damped_sine":
        return DampedSineSignal(sig["a"], sig["b"])
    raise ValueError(f"unknown signal kind {kind!r}")


@main.command("causal-transform")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--input", "input_csv", type=click.Path(), default=None, help="time-domain CSV")
@click.option("--omega-min", type=float, default=None)
@click.option("--omega-max", type=float, default=None)
@click.option("--omega-points", type=int, default=None)
@click.option("--output", "-o", type=click.Path(), required=True)
@_handle_errors
def causal_transform_cmd(config_path, input_csv, omega_min, omega_max, omega_points, output):
    """Half-line Fourier transform of a causal time signal onto a frequency grid."""
    cfg = _load_config(config_path)
    lo = float(_resolve(omega_min, cfg, "omega_min", -20.0))
    hi = float(_resolve(omega_max, cfg, "omega_max", 20.0))
    npts = int(_resolve(omega_points, cfg, "omega_points", 801))
    if input_csv is not None:
        signal = SampledComplexFunction.from_csv(input_csv)
        sig_desc = {"input": str(input_csv)}
    else:
        signal = _signal_from_config(cfg)
        sig_desc = cfg["signal"]
    _echo_config(
        "causal-transform",
        {"signal": sig_desc, "omega_min": lo, "omega_max": hi, "omega_points": npts},
    )
    result = causal_transform(signal, uniform_grid(lo, hi, npts))
    result.to_csv(output)
    click.echo(json.dumps({"output": str(output), "points": npts}))


# ---------------------------------------------------------------------------
# hardy-check
# ---------------------------------------------------------------------------

@main.command("hardy-check")
@click.option("--input", "input_csv", type=click.Path(), default=None, help="sampled CSV")
@click.option("--model", "model_json", type=click.Path(), default=None, help="model JSON")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--half-plane", "hp_flag", type=click.Choice(["upper", "lower"]), default=None)
@click.option("--offsets", type=str, default=None, help="comma-separated gammas")
@_handle_errors
def hardy_check(input_csv, model_json, config_path, hp_flag, offsets):
    """Line-integral Hardy criterion for a sampled function or analytic model."""
    cfg = _load_config(config_path)
    hp = _half_plane(_resolve(hp_flag, cfg, "half_plane", "upper"))
    off_text = _resolve(offsets, cfg, "offsets", "0.1,1,10")
    if isinstance(off_text, str):
        offs = [float(s) for s in off_text.split(",") if s.strip()]
    else:
        offs = [float(v) for v in off_text]
    if input_csv is not None:
        f = SampledComplexFunction.from_csv(input_csv)
        f = f.with_tail(estimate_tail(f))
        source = {"input": str(input_csv)}
    elif model_json is not None:
        with open(model_json, "r", encoding="utf-8") as fh:
            f = AnalyticModel.from_json(fh.read())
        source = {"model": str(model_json)}
    else:
        raise ValueError("provide --input or --model")
    _echo_config("hardy-check", {**source, "half_plane": hp.value, "offsets": offs})
    result = hardy_criterion(f, hp, offs)
    click.echo(
        json.dumps(
            {
                "offsets": list(result.offsets),
                "values": list(result.values),
                "verdict": "pass" if result.verdict else "fail",
                "reason": result.reason,
            }
        )
    )
    if not result.verdict:
        sys.exit(2)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _wave_from_config(cfg: dict) -> EnergyWaveFunction:
    if "wave" in cfg:
        return EnergyWaveFunction.from_json_dict(cfg["wave"])
    kind = cfg.get("kind", "state")
    spec = LorentzianSpec.from_json_dict(cfg["lorentzian"])
    if kind == "state":
        return make_lorentzian_state(spec)
    return make_lorentzian_observable(spec)


@main.command("evolve")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--time", "t_flag", type=float, default=None)
@click.option("--propagator", is_flag=True, help="retarded propagator: zero for t < 0")
@click.option("--output", "-o", type=click.Path(), default=None, help="evolved wave JSON")
@click.option("--distribution-csv", type=click.Path(), default=None)
@click.option("--grid-min", type=float, default=None)
@click.option("--grid-max", type=float, default=None)
@click.option("--grid-points", type=int, default=None)
@_handle_errors
def evolve_cmd(config_path, t_flag, propagator, output, distribution_csv, grid_min, grid_max, grid_points):
    """Semigroup evolution of a state or observable by a time t >= 0.

    With --propagator the retarded propagator is applied instead, which maps
    negative times to the zero wave function rather than failing.
    """
    cfg = _load_config(config_path)
    t = float(_resolve(t_flag, cfg, "time", 0.0))
    w = _wave_from_config(cfg)
    _echo_config(
        "evolve",
        {"time": t, "kind": w.kind.value, "propagator": bool(propagator)},
    )
    if propagator:
        out = retarded_propagator(w, t)
    elif w.kind.value == "state":
        out = evolve_state(w, t)
    else:
        out = evolve_observable(w, t)
    text = out.to_json()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    if distribution_csv:
        lo = float(_resolve(grid_min, cfg, "grid_min", 0.0))
        hi = float(_resolve(grid_max, cfg, "grid_max", 20.0))
        npts = int(_resolve(grid_points, cfg, "grid_points", 2001))
        grid = np.linspace(lo, hi, npts)
        dist, norm = energy_distribution(out, grid)
        _write_csv(distribution_csv, "E,f", zip(grid.tolist(), dist.tolist()))
        click.echo(json.dumps({"norm": norm}))


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

@main.command("decay")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--t-min", type=float, default=None)
@click.option("--t-max", type=float, default=None)
@click.option("--t-points", type=int, default=None)
@click.option("--method", type=click.Choice(["auto", "pole_residue", "quadrature"]), default=None)
@click.option("--fit", is_flag=True, help="append a fitted exponential rate")
@click.option("--fit-window", type=str, default=None, help="lo,hi fit window in t")
@click.option("--output", "-o", type=click.Path(), required=True)
@_handle_errors
def decay_cmd(config_path, t_min, t_max, t_points, method, fit, fit_window, output):
    """Transition probability P(t) for a state/observable pair and an S-matrix."""
    cfg = _load_config(config_path)
    lo = float(_resolve(t_min, cfg, "t_min", 0.0))
    hi = float(_resolve(t_max, cfg, "t_max", 40.0))
    npts = int(_resolve(t_points, cfg, "t_points", 201))
    meth = _resolve(method, cfg, "method", "auto")
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid time range [{lo}, {hi}]")

    state = make_lorentzian_state(LorentzianSpec.from_json_dict(cfg["state"]))
    obs = make_lorentzian_observable(LorentzianSpec.from_json_dict(cfg["observable"]))
    smatrix = tr.SMatrixModel.from_json_dict(cfg.get("smatrix", {"channels": []}))
    _echo_config(
        "decay",
        {
            "t_min": lo,
            "t_max": hi,
            "t_points": npts,
            "method": meth,
            "state": cfg["state"],
            "observable": cfg["observable"],
            "smatrix": cfg.get("smatrix", {"channels": []}),
        },
    )
    t_grid = np.linspace(lo, hi, npts) if npts > 1 else np.array([lo])
    results = tr.transition_probability(obs, state, smatrix, t_grid, method=meth)
    tr.amplitude_results_to_csv(results, output)
    summary = {"output": str(output), "points": len(results)}
    if fit:
        if fit_window is not None:
            w_lo, w_hi = (float(s) for s in fit_window.split(","))
        else:
            w_lo, w_hi = 5.0, min(30.0, hi)
        fitres = tr.fit_exponential_rate(results, (w_lo, w_hi))
        summary["fit"] = {
            "rate": fitres.rate,
            "window": list(fitres.window),
            "n_points": fitres.n_points,
            "residual_rms": fitres.residual_rms,
        }
    click.echo(json.dumps(summary))


# ---------------------------------------------------------------------------
# ensemble / compare
# ---------------------------------------------------------------------------

@main.command("ensemble")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--rate", type=float, default=None)
@click.option("--count", "-n", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--scheme", type=click.Choice(["simultaneous", "sequential"]), default=None)
@click.option("--t0", type=float, default=None, help="simultaneous preparation instant")
@click.option("--start", type=float, default=None, help="sequential first instant")
@click.option("--step", type=float, default=None, help="sequential spacing")
@click.option("--t-max", type=float, default=None)
@click.option("--t-points", type=int, default=None)
@click.option("--events-out", type=click.Path(), required=True)
@click.option("--survival-out", type=click.Path(), default=None)
@_handle_errors
def ensemble_cmd(
    config_path, rate, count, seed, scheme, t0, start, step, t_max, t_points, events_out, survival_out
):
    """Simulate a decay ensemble and its empirical survival curve."""
    cfg = _load_config(config_path)
    rate = float(_resolve(rate, cfg, "rate", 1.0))
    n = int(_resolve(count, cfg, "count", 150))
    seed = int(_resolve(seed, cfg, "seed", 0))
    scheme_kind = _resolve(scheme, cfg, "scheme", "simultaneous")
    if scheme_kind == "simultaneous":
        sch = ens.SimultaneousScheme(float(_resolve(t0, cfg, "t0", 0.0)))
    else:
        sch = ens.SequentialScheme(
            tuple(
                float(_resolve(start, cfg, "start", 0.0))
                + float(_resolve(step, cfg, "step", 1.0)) * i
                for i in range(n)
            )
        )
    hi = float(_resolve(t_max, cfg, "t_max", 8.0 / rate))
    npts = int(_resolve(t_points, cfg, "t_points", max(n, 50)))
    _echo_config(
        "ensemble",
        {
            "rate": rate,
            "count": n,
            "seed": seed,
            "scheme": sch.to_json_dict(),
            "t_max": hi,
            "t_points": npts,
        },
    )
    records = ens.sample_decay_ensemble(rate, n, sch, seed)
    ens.events_to_csv(records, events_out)
    if survival_out:
        curve = ens.survival_curve(records, np.linspace(0.0, hi, npts))
        curve.to_csv(survival_out)
    click.echo(json.dumps({"events": str(events_out), "survival": survival_out}))


def _read_theory_csv(path):
    _, (ts, ps) = _read_csv(path, ("t", ("p", "survival")))
    return np.array(ts), np.array(ps)


@main.command("compare")
@click.option("--events", "events_csv", type=click.Path(), required=True)
@click.option("--theory", "theory_csv", type=click.Path(), required=True)
@click.option("--z-limit", type=float, default=3.0, show_default=True)
@_handle_errors
def compare_cmd(events_csv, theory_csv, z_limit):
    """Compare an event ensemble against a theoretical P(t) curve.

    Exit 0 when max |z| <= the limit; exit 2 on statistical disagreement or
    on causality violations in the event file (offending indices listed).
    """
    _echo_config(
        "compare",
        {"events": str(events_csv), "theory": str(theory_csv), "z_limit": z_limit},
    )
    records = ens.events_from_csv(events_csv)
    t_grid, theory = _read_theory_csv(theory_csv)
    report = ens.compare_to_theory(records, theory, t_grid)
    click.echo(
        json.dumps(
            {
                "max_abs_z": report.max_abs_z,
                "n_points": int(report.t.size),
                "pass": report.max_abs_z <= z_limit,
            }
        )
    )
    if report.max_abs_z > z_limit:
        sys.exit(2)


if __name__ == "__main__":
    main()
