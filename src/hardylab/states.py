"""Channel-indexed energy wave functions and semigroup time evolution.

A prepared state is represented by energy wave functions that are Hardy from
below (analytic under the real axis); a registered observable by functions
Hardy from above.  Time evolution is multiplication by e^{-iEt} (states) or
e^{+iEt} (observables) in the energy representation and is defined for
t >= 0 only: pushing the phase factor off the real axis multiplies the
criterion line integrals by e^{2ty}, which stays bounded in the analyticity
half-plane exactly when t is nonnegative.  No Hamiltonian matrix is ever
built; the spectrum is the positive energy axis throughout.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from typing import Mapping

import numpy as np

from .errors import HardyLabError, InvalidSpec, NegativeTime, NonAnalyticInput
from .hardy import hardy_criterion
from .models import AnalyticModel, HalfPlane, RationalSum, SimplePole
from .quadrature import (
    Method,
    grid_weights,
    modulus_squared_terms,
    rational_halfline_fourier,
    rational_line_integral,
    squared_tail_integral,
)
from .sampled import SampledComplexFunction

import enum

_CONSTRUCTION_OFFSETS = (0.1, 1.0)


class WaveKind(enum.Enum):
    """Role of a wave function: prepared state or registered observable."""

    STATE = "state"
    OBSERVABLE = "observable"

    @property
    def half_plane(self) -> HalfPlane:
        """Hardy class: states live below the axis, observables above."""
        return HalfPlane.LOWER if self is WaveKind.STATE else HalfPlane.UPPER

    @property
    def phase_sign(self) -> int:
        """Sign of the evolution phase e^{sign * (-i) E t}."""
        return +1 if self is WaveKind.STATE else -1


@dataclass(frozen=True, order=True)
class Channel:
    """Orbital angular momentum labels (l, l3) with -l <= l3 <= l."""

    l: int
    l3: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if not -self.l <= self.l3 <= self.l:
            raise ValueError(f"l3 = {self.l3} outside [-{self.l}, {self.l}]")


@dataclass(frozen=True)
class ChannelFunction:
    """One channel's energy function: base times the phase e^{-i E tau}.

    Evolution only adds to the accumulated phase time tau, for analytic and
    sampled bases alike: the closed form or the samples stay as they are, and
    the phase enters the amplitude integral once, through the time.
    States carry tau >= 0 and observables tau <= 0; those are the only signs
    the semigroup can produce, and the sign guarantees the Hardy class of the
    evolved function.
    """

    base: AnalyticModel | SampledComplexFunction
    phase_time: float = 0.0

    def __post_init__(self):
        if not isinstance(self.base, (AnalyticModel, SampledComplexFunction)):
            raise TypeError("base must be an AnalyticModel or SampledComplexFunction")
        if not np.isfinite(self.phase_time):
            raise ValueError("phase_time must be finite")

    @property
    def is_analytic(self) -> bool:
        return isinstance(self.base, AnalyticModel)

    def base_value(self, energies):
        """The base on the energies, without the phase e^{-i E tau}."""
        e = np.asarray(energies, dtype=float)
        return np.asarray(self.base(e.astype(complex)) if self.is_analytic else self.base(e), dtype=complex)

    def value(self, energies):
        e = np.asarray(energies, dtype=float)
        return np.exp(-1j * e * self.phase_time) * self.base_value(e)

    def shifted(self, dt: float) -> "ChannelFunction":
        return ChannelFunction(self.base, self.phase_time + dt)

    def conjugate(self) -> "ChannelFunction":
        return ChannelFunction(self.base.conjugate(), -self.phase_time)

    def norm_squared(self) -> float:
        """int_0^inf |value(E)|^2 dE; the phase drops out of the modulus."""
        if self.is_analytic:
            return rational_halfline_fourier(modulus_squared_terms(self.base), 0.0).value.real
        f = self.base
        lo = np.searchsorted(f.grid, 0.0)
        if lo >= len(f) - 1:
            return 0.0
        g, v = f.grid[lo:], f.values[lo:]
        core = float(np.sum(grid_weights(g, Method.TRAPEZOID_UNIFORM) * np.abs(v) ** 2))
        if f.tail is not None:
            tail, _ = squared_tail_integral(f)
            core += 0.5 * tail.real  # right-side share of the two-sided tail
        return core


@dataclass(frozen=True)
class EnergyWaveFunction:
    """A state phi+ or observable psi-, as a map Channel -> ChannelFunction.

    Construction verifies the Hardy criterion of every channel in the
    half-plane matching the kind (offsets 0.1 and 1) and that the total norm
    is finite.  Pass validate=False only from code paths whose output class
    is guaranteed (evolution, conjugation).
    """

    kind: WaveKind
    channels: Mapping[Channel, ChannelFunction]
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        chans = {}
        for ch, fn in dict(self.channels).items():
            if not isinstance(ch, Channel):
                raise TypeError(f"channel key {ch!r} is not a Channel")
            if isinstance(fn, (AnalyticModel, SampledComplexFunction)):
                fn = ChannelFunction(fn)
            chans[ch] = fn
        object.__setattr__(self, "channels", chans)
        if validate:
            self._check_class()
            if not np.isfinite(self.norm_squared()):
                raise InvalidSpec("wave function has non-finite norm")

    def _check_class(self):
        hp = self.kind.half_plane
        for ch, fn in self.channels.items():
            if self.kind is WaveKind.STATE and fn.phase_time < 0:
                raise NegativeTime(f"state channel {ch} carries negative phase time")
            if self.kind is WaveKind.OBSERVABLE and fn.phase_time > 0:
                raise NegativeTime(f"observable channel {ch} carries positive phase time")
            try:
                result = hardy_criterion(fn.base, hp, _CONSTRUCTION_OFFSETS)
            except HardyLabError as exc:
                raise InvalidSpec(f"channel {ch} is not Hardy for {hp.value}: {exc}") from exc
            if not result.verdict:
                raise InvalidSpec(
                    f"channel {ch} fails the Hardy criterion for {hp.value}: {result.reason}"
                )

    def norm_squared(self) -> float:
        return float(sum(fn.norm_squared() for fn in self.channels.values()))

    @property
    def is_zero(self) -> bool:
        return all(fn.is_analytic and fn.base.is_zero for fn in self.channels.values())

    def map_channels(self, op, kind=None, validate=False) -> "EnergyWaveFunction":
        return EnergyWaveFunction(
            kind or self.kind,
            {ch: op(fn) for ch, fn in self.channels.items()},
            validate=validate,
        )

    # --- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind.value, "channels": []}
        for ch in sorted(self.channels):
            fn = self.channels[ch]
            entry = {"l": ch.l, "l3": ch.l3}
            if fn.is_analytic:
                entry["model"] = fn.base.to_json_dict()
            else:
                entry["samples"] = fn.base.to_json_dict()
            if fn.phase_time != 0.0:
                entry["phase_time"] = float(fn.phase_time)
            out["channels"].append(entry)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict, validate: bool = True) -> "EnergyWaveFunction":
        kind = WaveKind(obj["kind"])
        chans = {}
        for entry in obj["channels"]:
            ch = Channel(entry["l"], entry["l3"])
            if "model" in entry:
                base = AnalyticModel.from_json_dict(entry["model"])
            else:
                base = SampledComplexFunction.from_json_dict(entry["samples"])
            chans[ch] = ChannelFunction(base, entry.get("phase_time", 0.0))
        return cls(kind, chans, validate=validate)

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "EnergyWaveFunction":
        return cls.from_json_dict(json.loads(text), validate=validate)


# ---------------------------------------------------------------------------
# Lorentzian constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzianSpec:
    """Peak energy, FWHM, and per-channel complex coefficients."""

    peak: float
    fwhm: float
    coefficients: Mapping[Channel, complex] = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.peak) and self.peak > 0):
            raise InvalidSpec(f"peak energy must be > 0, got {self.peak}")
        if not (np.isfinite(self.fwhm) and self.fwhm > 0):
            raise InvalidSpec(f"FWHM must be > 0, got {self.fwhm}")
        coeffs = {}
        for ch, c in dict(self.coefficients).items():
            if not isinstance(ch, Channel):
                raise InvalidSpec(f"coefficient key {ch!r} is not a Channel")
            coeffs[ch] = complex(c)
        if not coeffs or all(c == 0 for c in coeffs.values()):
            raise InvalidSpec("need at least one nonzero coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LorentzianSpec":
        coeffs = {
            Channel(e["l"], e["l3"]): complex(e["re"], e.get("im", 0.0))
            for e in obj["coefficients"]
        }
        return cls(obj["a"], obj["b"], coeffs)

    def to_json_dict(self) -> dict:
        return {
            "a": float(self.peak),
            "b": float(self.fwhm),
            "coefficients": [
                {"l": ch.l, "l3": ch.l3, "re": float(c.real), "im": float(c.imag)}
                for ch, c in sorted(self.coefficients.items())
            ],
        }


def lorentzian_norm_integral(peak: float, fwhm: float) -> float:
    """int_0^inf dE / ((E - peak)^2 + (fwhm/2)^2), in closed form."""
    half = fwhm / 2.0
    return (np.pi / 2.0 + np.arctan(peak / half)) / half


def _normalized_poles(spec: LorentzianSpec, pole: complex):
    total = sum(abs(c) ** 2 for c in spec.coefficients.values())
    scale = 1.0 / np.sqrt(total * lorentzian_norm_integral(spec.peak, spec.fwhm))
    return {
        ch: ChannelFunction(SimplePole(scale * c, pole))
        for ch, c in spec.coefficients.items()
    }


def make_lorentzian_state(spec: LorentzianSpec) -> EnergyWaveFunction:
    """State with Lorentzian energy distribution: poles at peak + i fwhm/2.

    Coefficients are rescaled by a common factor so the distribution
    integrates to one over the physical spectrum (0, inf); relative channel
    weights are preserved.
    """
    pole = complex(spec.peak, spec.fwhm / 2.0)
    return EnergyWaveFunction(WaveKind.STATE, _normalized_poles(spec, pole))


def make_lorentzian_observable(spec: LorentzianSpec) -> EnergyWaveFunction:
    """Observable with Lorentzian resolution: poles at peak - i fwhm/2."""
    pole = complex(spec.peak, -spec.fwhm / 2.0)
    return EnergyWaveFunction(WaveKind.OBSERVABLE, _normalized_poles(spec, pole))


def energy_distribution(w: EnergyWaveFunction, grid) -> tuple[np.ndarray, float]:
    """Channel-summed |wave function|^2 on the grid, plus the total norm.

    The returned norm is the integral over (0, inf), independent of the
    evaluation grid.
    """
    grid = np.asarray(grid, dtype=float)
    dist = np.zeros(grid.shape, dtype=float)
    for fn in w.channels.values():
        dist += np.abs(fn.value(grid)) ** 2
    return dist, w.norm_squared()


# ---------------------------------------------------------------------------
# semigroup evolution
# ---------------------------------------------------------------------------

def evolve_state(w: EnergyWaveFunction, t: float) -> EnergyWaveFunction:
    """Multiply every state channel by e^{-i E t}; defined for t >= 0 only.

    Negative t raises NegativeTime: the evolved function would grow like
    e^{2|t||y|} along lines below the axis and leave the Hardy class, so the
    operator has no inverse within the contract.
    """
    if w.kind is not WaveKind.STATE:
        raise ValueError("evolve_state needs a state (kind STATE)")
    if t < 0:
        raise NegativeTime(f"t = {t} < 0: states evolve forward only")
    if t == 0:
        return w
    return _evolved(w, t)


def evolve_observable(w: EnergyWaveFunction, t: float) -> EnergyWaveFunction:
    """Multiply every observable channel by e^{+i E t}; t >= 0 only."""
    if w.kind is not WaveKind.OBSERVABLE:
        raise ValueError("evolve_observable needs an observable (kind OBSERVABLE)")
    if t < 0:
        raise NegativeTime(f"t = {t} < 0: observables evolve forward only")
    if t == 0:
        return w
    return _evolved(w, t)


def _evolved(w: EnergyWaveFunction, t: float) -> EnergyWaveFunction:
    dt = w.kind.phase_sign * t
    return w.map_channels(lambda fn: fn.shifted(dt))


def zero_like(w: EnergyWaveFunction) -> EnergyWaveFunction:
    """The zero wave function on the same channel set."""

    def zero(fn: ChannelFunction) -> ChannelFunction:
        if fn.is_analytic:
            return ChannelFunction(RationalSum(()))
        return ChannelFunction(fn.base.with_values(np.zeros(len(fn.base), dtype=complex)))

    return w.map_channels(zero)


def retarded_propagator(w: EnergyWaveFunction, t: float) -> EnergyWaveFunction:
    """theta(t) e^{-iHt}: evolution for t >= 0, the zero function for t < 0.

    This is the scattering-theory object that silences negative times instead
    of forbidding them; contrast with evolve_state, which raises.
    """
    if w.kind is not WaveKind.STATE:
        raise ValueError("retarded_propagator acts on states")
    if t < 0:
        return zero_like(w)
    return evolve_state(w, t)


def conjugate_wave(w: EnergyWaveFunction) -> EnergyWaveFunction:
    """Channelwise complex conjugate with the kind flipped.

    Conjugation mirrors every pole across the real axis, so a valid
    observable becomes a valid state with the same energy distribution and
    vice versa.
    """
    kind = WaveKind.STATE if w.kind is WaveKind.OBSERVABLE else WaveKind.OBSERVABLE
    return w.map_channels(ChannelFunction.conjugate, kind=kind)


def state_jump(obs: EnergyWaveFunction) -> EnergyWaveFunction:
    """The state prepared by a selective measurement of the observable.

    Immediately after the measurement registers, the microsystem is in a
    state with the same energy-angular distribution as the observable's
    resolution function; the wave function is the channelwise conjugate, its
    Lorentzian poles moving from peak - i fwhm/2 up to peak + i fwhm/2.
    """
    if obs.kind is not WaveKind.OBSERVABLE:
        raise ValueError("state_jump maps an observable to the prepared state")
    return conjugate_wave(obs)


# ---------------------------------------------------------------------------
# divergence diagnostics for the forbidden direction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    """Growth of the would-be backward-evolved line integrals.

    evolved_values[k] is int |e^{-i(E+iy)t} w(E+iy)|^2 dE at y = -offsets[k]
    for the (negative) time t; base_values are the same integrals without the
    phase.  actual and predicted ratios compare consecutive offsets against
    the e^{2|t| dgamma} growth law.
    """

    t: float
    offsets: tuple[float, ...]
    evolved_values: tuple[float, ...]
    base_values: tuple[float, ...]
    predicted_ratios: tuple[float, ...]
    actual_ratios: tuple[float, ...]
    verdict: str


def semigroup_divergence_check(
    w: EnergyWaveFunction, t: float, offsets
) -> DivergenceReport:
    """Demonstrate the exponential blow-up that forbids backward evolution.

    For t < 0 the phase factor contributes e^{2|t| gamma} on the line
    Im z = -gamma, so the line integrals of the would-be evolved state grow
    without bound as gamma increases.  The verdict is "diverges" when every
    consecutive ratio matches the predicted growth within 10%.  A line that
    passes through a pole raises PoleOnContinuationLine.
    """
    if t >= 0:
        raise ValueError("divergence check needs strictly negative t")
    if w.kind is not WaveKind.STATE:
        raise ValueError("divergence check acts on states")
    offs = sorted(float(g) for g in offsets)
    if any(g <= 0 for g in offs):
        raise ValueError("offsets must be strictly positive")
    for ch, fn in w.channels.items():
        if not fn.is_analytic:
            raise NonAnalyticInput(f"channel {ch} is sampled; continuation needs a model")

    def line_integral(gamma: float, dt: float) -> float:
        # on Im z = -gamma the phase has the constant modulus |e^{-i z tau}|^2 = e^{-2 gamma tau}
        total = 0.0
        for fn in w.channels.values():
            line, _ = rational_line_integral(modulus_squared_terms(fn.base, -gamma))
            total += np.exp(-2.0 * gamma * (fn.phase_time + dt)) * line.real
        return total

    evolved = [line_integral(g, t) for g in offs]
    base = [line_integral(g, 0.0) for g in offs]

    predicted, actual = [], []
    for k in range(len(offs) - 1):
        if base[k] == 0 or evolved[k] == 0:
            predicted.append(np.nan)
            actual.append(np.nan)
            continue
        growth = np.exp(2.0 * abs(t) * (offs[k + 1] - offs[k]))
        predicted.append(growth * base[k + 1] / base[k])
        actual.append(evolved[k + 1] / evolved[k])

    if all(v == 0 for v in evolved):
        verdict = "no divergence"
    elif predicted and all(
        np.isfinite(p) and abs(a / p - 1.0) <= 0.1 for p, a in zip(predicted, actual)
    ):
        verdict = "diverges"
    else:
        verdict = "inconclusive"
    return DivergenceReport(
        t=float(t),
        offsets=tuple(offs),
        evolved_values=tuple(evolved),
        base_values=tuple(base),
        predicted_ratios=tuple(predicted),
        actual_ratios=tuple(actual),
        verdict=verdict,
    )
