"""Transition amplitudes a(t) and Born probabilities P(t) = |a(t)|^2.

The amplitude between an observable psi- and a state phi+ is the channel sum
of half-line energy integrals

    a(t) = sum_{channels} int_0^inf e^{-iEt} conj(psi(E)) phi(E) S(E) dE,

defined for t >= 0 only.  Since conj(psi) and phi are both Hardy from below,
the large-t behavior is controlled by the S-matrix element's poles in the
lower half-plane: a Breit-Wigner pole at E_R - i Gamma/2 contributes the
decaying exponential e^{-iE_R t} e^{-Gamma t/2} on top of a power-law
background.  Two evaluation routes are provided: direct oscillatory
quadrature, and the exact pole/residue route available when all factors are
rational.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleChannels, NegativeTime
from .quadrature import (
    default_energy_grid,
    oscillatory_integral,
    pole_sum_product,
    rational_halfline_fourier,
)
from .sampled import SampledComplexFunction, TailModel, _read_csv, _write_csv
from .states import Channel, ChannelFunction, EnergyWaveFunction, WaveKind
# not called here; perfbench/tracing.py wraps these bindings as its states.evolve boundary
from .states import evolve_observable, evolve_state  # noqa: F401

_GRID_POINTS = 32769
AMPLITUDE_CSV_HEADER = "t,re_a,im_a,p,err"


# ---------------------------------------------------------------------------
# S-matrix models
# ---------------------------------------------------------------------------

class SMatrixEntry:
    """One channel's S-matrix element S(E) on the positive real axis."""

    def value(self, energies):
        raise NotImplementedError

    def as_rational(self) -> tuple[complex, tuple[tuple[complex, complex], ...]] | None:
        """(background, ((residue, pole), ...)) when rational, else None."""
        return None

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class UnitS(SMatrixEntry):
    """Trivial dynamics: S(E) = 1."""

    def value(self, energies):
        return np.ones_like(np.asarray(energies, dtype=complex))

    def as_rational(self):
        return (1.0 + 0j, ())

    def to_json_dict(self):
        return {"kind": "unit", "params": {}}


@dataclass(frozen=True)
class ResonancePole(SMatrixEntry):
    """Breit-Wigner element S(E) = background + residue / (E - E_R + i Gamma/2).

    The pole sits at E_R - i Gamma/2, strictly in the lower half-plane.  The
    default residue -i Gamma makes |S(E)| = 1 on the whole real axis (the
    classic elastic resonance); pass an explicit residue to break unitarity
    deliberately.
    """

    e_r: float
    gamma: float
    background: complex = 1.0 + 0j
    residue: complex | None = None

    def __post_init__(self):
        if not self.e_r > 0:
            raise ValueError(f"resonance energy must be > 0, got {self.e_r}")
        if not self.gamma > 0:
            raise ValueError(f"width must be > 0, got {self.gamma}")
        object.__setattr__(self, "background", complex(self.background))
        if self.residue is not None:
            object.__setattr__(self, "residue", complex(self.residue))

    @property
    def pole(self) -> complex:
        return complex(self.e_r, -self.gamma / 2.0)

    @property
    def effective_residue(self) -> complex:
        return self.residue if self.residue is not None else -1j * self.gamma

    def value(self, energies):
        e = np.asarray(energies, dtype=complex)
        return self.background + self.effective_residue / (e - self.pole)

    def as_rational(self):
        return (self.background, ((self.effective_residue, self.pole),))

    def to_json_dict(self):
        params = {
            "e_r": float(self.e_r),
            "gamma": float(self.gamma),
            "background": {"re": self.background.real, "im": self.background.imag},
        }
        if self.residue is not None:
            params["residue"] = {"re": self.residue.real, "im": self.residue.imag}
        return {"kind": "resonance_pole", "params": params}


@dataclass(frozen=True)
class PhaseShift(SMatrixEntry):
    """S(E) = e^{2 i delta(E)} for a real phase shift delta.

    delta may be a constant, a vectorized callable of E, or a sampled real
    function (interpolated).  |S| = 1 on the real axis by construction.
    """

    delta: object

    def _delta(self, e):
        if isinstance(self.delta, (int, float)):
            return np.full_like(np.asarray(e, dtype=float), float(self.delta))
        if isinstance(self.delta, SampledComplexFunction):
            return self.delta(np.asarray(e, dtype=float)).real
        return np.asarray(self.delta(np.asarray(e, dtype=float)), dtype=float)

    def value(self, energies):
        e = np.asarray(energies, dtype=float)
        return np.exp(2j * self._delta(e))

    def as_rational(self):
        if isinstance(self.delta, (int, float)):
            return (complex(np.exp(2j * float(self.delta))), ())
        return None

    def to_json_dict(self):
        if isinstance(self.delta, (int, float)):
            return {"kind": "phase_shift", "params": {"delta": float(self.delta)}}
        if isinstance(self.delta, SampledComplexFunction):
            return {"kind": "phase_shift", "params": {"delta_samples": self.delta.to_json_dict()}}
        raise ValueError("callable phase shifts are not serializable")


@dataclass(frozen=True)
class SMatrixModel:
    """Channel-indexed S-matrix; channels not listed default to unit."""

    channels: dict

    def __post_init__(self):
        chans = {}
        for ch, entry in dict(self.channels).items():
            if not isinstance(ch, Channel):
                raise IncompatibleChannels(f"S-matrix key {ch!r} is not a Channel")
            if not isinstance(entry, SMatrixEntry):
                raise TypeError(f"S-matrix entry for {ch} must be an SMatrixEntry")
            chans[ch] = entry
        object.__setattr__(self, "channels", chans)

    def entry(self, ch: Channel) -> SMatrixEntry:
        return self.channels.get(ch, UnitS())

    @classmethod
    def unit(cls) -> "SMatrixModel":
        return cls({})

    def to_json_dict(self) -> dict:
        out = []
        for ch in sorted(self.channels):
            d = self.channels[ch].to_json_dict()
            out.append({"l": ch.l, "l3": ch.l3, "kind": d["kind"], "params": d["params"]})
        return {"channels": out}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SMatrixModel":
        chans = {}
        for e in obj.get("channels", []):
            ch = Channel(e["l"], e["l3"])
            kind, params = e["kind"], e.get("params", {})
            if kind == "unit":
                chans[ch] = UnitS()
            elif kind == "resonance_pole":
                bg = params.get("background", {"re": 1.0, "im": 0.0})
                res = params.get("residue")
                chans[ch] = ResonancePole(
                    params["e_r"],
                    params["gamma"],
                    complex(bg["re"], bg["im"]),
                    complex(res["re"], res["im"]) if res else None,
                )
            elif kind == "phase_shift":
                if "delta" in params:
                    chans[ch] = PhaseShift(params["delta"])
                else:
                    chans[ch] = PhaseShift(
                        SampledComplexFunction.from_json_dict(params["delta_samples"])
                    )
            else:
                raise ValueError(f"unknown S-matrix kind {kind!r}")
        return cls(chans)

    @classmethod
    def from_json(cls, text: str) -> "SMatrixModel":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# amplitude results
# ---------------------------------------------------------------------------

class AmplitudeMethod(enum.Enum):
    QUADRATURE = "quadrature"
    POLE_RESIDUE = "pole_residue"


@dataclass(frozen=True)
class AmplitudeResult:
    """One time point of the transition amplitude and probability."""

    t: float
    a: complex
    p: float
    method: AmplitudeMethod
    error_estimate: float

    @classmethod
    def from_amplitude(cls, t, a, method, error) -> "AmplitudeResult":
        a = complex(a)
        return cls(float(t), a, float(abs(a) ** 2), method, float(error))


def amplitude_results_to_csv(results, path):
    rows = ((r.t, r.a.real, r.a.imag, r.p, r.error_estimate) for r in results)
    _write_csv(path, AMPLITUDE_CSV_HEADER, rows)


def amplitude_results_from_csv(path) -> list[AmplitudeResult]:
    _, columns = _read_csv(path, AMPLITUDE_CSV_HEADER)
    return [
        AmplitudeResult(t, complex(re_a, im_a), p, AmplitudeMethod.QUADRATURE, err)
        for t, re_a, im_a, p, err in zip(*columns)
    ]


def amplitude_results_to_json(results) -> str:
    return json.dumps(
        [
            {
                "t": r.t,
                "a": {"re": r.a.real, "im": r.a.imag},
                "p": r.p,
                "method": r.method.value,
                "error_estimate": r.error_estimate,
            }
            for r in results
        ]
    )


def _channel_rational_terms(psi: ChannelFunction, phi: ChannelFunction, s_entry):
    """Pole-order terms of conj(psi)(E) phi(E) S(E), or None if not rational."""
    rat = s_entry.as_rational()
    if rat is None or not (psi.is_analytic and phi.is_analytic):
        return None
    background, s_terms = rat
    psi_terms = [(np.conj(c), np.conj(p)) for c, p in psi.base.as_terms()]
    s_factor = ([(background, None)] if background != 0 else []) + list(s_terms)
    return pole_sum_product([psi_terms, phi.base.as_terms(), s_factor])


# ---------------------------------------------------------------------------
# the amplitude
# ---------------------------------------------------------------------------

def _shared_channels(obs, state):
    for key in list(obs.channels) + list(state.channels):
        if not isinstance(key, Channel):
            raise IncompatibleChannels(f"malformed channel key {key!r}")
    return sorted(set(obs.channels) & set(state.channels))


def _channel_integrand(psi: ChannelFunction, phi: ChannelFunction, s_entry) -> SampledComplexFunction:
    """conj(psi)(E) phi(E) S(E) on the quadrature grid, with its E^-2 tail model."""
    poles, hi = [], 10.0
    for fn in (psi, phi):
        if fn.is_analytic:
            poles.extend(fn.base.poles())
        else:
            hi = max(hi, fn.base.grid[-1])
    rat = s_entry.as_rational()
    if rat is not None:
        poles.extend(p for _, p in rat[1])
    grid = default_energy_grid(poles, _GRID_POINTS, hi)
    # the phase times enter once, through t_eff, so the integrand uses the bases
    integrand = np.conj(psi.base_value(grid)) * phi.base_value(grid) * s_entry.value(grid)
    # the wave-function product decays like E^-2; the fitted expansion refines
    c2 = integrand[-1] * grid[-1] ** 2
    return SampledComplexFunction(grid, integrand, TailModel(2.0, complex(c2)))


def transition_amplitude(
    obs: EnergyWaveFunction,
    state: EnergyWaveFunction,
    s: SMatrixModel,
    t: float,
    *,
    method: str = "auto",
) -> AmplitudeResult:
    """a(t) at one t >= 0: the one-point case of transition_probability."""
    return transition_probability(obs, state, s, [t], method=method)[0]


def transition_probability(
    obs: EnergyWaveFunction,
    state: EnergyWaveFunction,
    s: SMatrixModel,
    t_grid,
    *,
    method: str = "auto",
) -> list[AmplitudeResult]:
    """a(t) = sum_channels int_0^inf e^{-iEt} conj(psi) phi S dE and P(t) = |a(t)|^2 on a t grid.

    The grid must be finite, nonnegative and nondecreasing.  Channels present
    in only one wave function contribute zero.  With method "auto" the exact
    pole/residue route is used whenever every factor is rational, otherwise
    Filon quadrature; "pole_residue" and "quadrature" force the respective
    route.  Each channel's terms or integrand is built once for all t.  Error
    estimates: cancellation-aware on the pole route, Richardson on quadrature.
    """
    if obs.kind is not WaveKind.OBSERVABLE:
        raise ValueError("first argument must be an observable")
    if state.kind is not WaveKind.STATE:
        raise ValueError("second argument must be a state")
    if method not in ("auto", "pole_residue", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    ts = [float(t) for t in t_grid]
    if any(t < 0 for t in ts):
        raise NegativeTime("t grid contains negative entries")
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("t grid must be finite")
    if any(b < a for a, b in zip(ts[:-1], ts[1:])):
        raise ValueError("t grid must be nondecreasing")

    # the t-independent part of each channel, evaluated below as kernel(argument, t_eff)
    channels, used = [], AmplitudeMethod.POLE_RESIDUE
    for ch in _shared_channels(obs, state):
        psi, phi = obs.channels[ch], state.channels[ch]
        terms = _channel_rational_terms(psi, phi, s.entry(ch)) if method != "quadrature" else None
        if terms is not None:
            channels.append((ch, psi, phi, rational_halfline_fourier, terms))
        elif method == "pole_residue":
            raise ValueError("pole_residue route needs rational factors throughout")
        else:
            used = AmplitudeMethod.QUADRATURE
            channels.append((ch, psi, phi, oscillatory_integral, _channel_integrand(psi, phi, s.entry(ch))))

    results = []
    for t in ts:
        total, err = 0j, 0.0
        for ch, psi, phi, kernel, argument in channels:
            t_eff = t + phi.phase_time - psi.phase_time
            if t_eff < 0:
                raise NegativeTime(f"effective time {t_eff} < 0 in channel {ch}")
            value, e = kernel(argument, t_eff)
            total += value
            err += e
        results.append(AmplitudeResult.from_amplitude(t, total, used, err))
    return results


# ---------------------------------------------------------------------------
# decay-rate extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of log P(t) = log A - rate * t over a window."""

    rate: float
    log_amplitude: float
    window: tuple[float, float]
    n_points: int
    residual_rms: float


def fit_exponential_rate(results, window: tuple[float, float]) -> ExponentialFit:
    """Fit the exponential decay rate of |a(t)|^2 inside the window.

    The window should sit after the early transients and before the power-law
    background overtakes the pole term; for a Breit-Wigner resonance on broad
    Lorentzian wave functions that is roughly a few lifetimes wide.
    """
    lo, hi = window
    ts = np.array([r.t for r in results])
    ps = np.array([r.p for r in results])
    mask = (ts >= lo) & (ts <= hi) & (ps > 0)
    if mask.sum() < 3:
        raise ValueError("need at least 3 positive points inside the fit window")
    x = ts[mask]
    y = np.log(ps[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ExponentialFit(
        rate=float(-slope),
        log_amplitude=float(intercept),
        window=(float(lo), float(hi)),
        n_points=int(mask.sum()),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )
