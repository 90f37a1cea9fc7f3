"""Lab-clock event ensembles and decay statistics.

Each experimental run records a preparation instant T_prep and a registration
instant T_reg on the experimenter's clock.  All preparations are identified
with the single parameter value t = 0, so the quantum time parameter of a
record is the undisturbed interval t = T_reg - T_prep, never negative:
registration cannot precede preparation.  The simulator draws those
intervals from the exponential decay law with a seedable counter-based
generator, and the analysis side turns the records into empirical survival
curves compared against theoretical P(t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CausalityViolation,
    EmptyEnsemble,
    GridMismatch,
    InvalidRate,
    InvalidSchemeLength,
)
from .sampled import _read_csv, _write_csv

EVENTS_CSV_HEADER = "i,T_prep,T_reg,t"
SURVIVAL_CSV_HEADER = "t,survival,err_lo,err_hi"


@dataclass(frozen=True)
class LabEventRecord:
    """One preparation/registration pair on the lab clock.

    t_param = T_reg - T_prep is the interval the microsystem spent
    undisturbed; the constructor enforces t_param >= 0.  The sampler stores
    the drawn interval directly so that it is independent of the lab-clock
    offsets bit for bit (recomputing the difference would round it against
    large clock readings).
    """

    index: int
    t_prep: float
    t_reg: float
    t_param: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("record index is 1-based")
        if not (np.isfinite(self.t_prep) and np.isfinite(self.t_reg)):
            raise ValueError("clock times must be finite")
        object.__setattr__(self, "t_prep", float(self.t_prep))
        object.__setattr__(self, "t_reg", float(self.t_reg))
        if self.t_param is not None:
            object.__setattr__(self, "t_param", float(self.t_param))
        if self.t_param is None:
            object.__setattr__(self, "t_param", self.t_reg - self.t_prep)
        else:
            scale = max(1.0, abs(self.t_prep), abs(self.t_reg))
            if abs(self.t_param - (self.t_reg - self.t_prep)) > 1e-9 * scale:
                raise ValueError(
                    f"record {self.index}: t = {self.t_param} inconsistent with clock times"
                )
        if self.t_reg < self.t_prep or self.t_param < 0:
            raise CausalityViolation([self.index])


@dataclass(frozen=True)
class SimultaneousScheme:
    """All N microsystems prepared at the same clock instant T0."""

    t0: float = 0.0

    def prep_time(self, index: int) -> float:
        return float(self.t0)

    def check_length(self, n: int):
        return

    def to_json_dict(self):
        return {"kind": "simultaneous", "t0": float(self.t0)}


@dataclass(frozen=True)
class SequentialScheme:
    """One microsystem re-prepared at strictly increasing instants."""

    times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) >= 2 and not all(b > a for a, b in zip(times[:-1], times[1:])):
            raise ValueError("sequential preparation instants must be strictly increasing")
        object.__setattr__(self, "times", times)

    def prep_time(self, index: int) -> float:
        return self.times[index - 1]

    def check_length(self, n: int):
        if len(self.times) < n:
            raise InvalidSchemeLength(
                f"scheme provides {len(self.times)} instants for {n} events"
            )

    def to_json_dict(self):
        return {"kind": "sequential", "times": list(self.times)}


# ---------------------------------------------------------------------------
# mapping to the quantum time parameter
# ---------------------------------------------------------------------------

def map_to_parameter_time(events: Sequence[tuple]) -> list[LabEventRecord]:
    """Map (T_prep, T_reg) pairs onto parameter-time records.

    Every preparation is identified with t = 0, so the record's time
    parameter is just the difference of the clock readings; the lab-clock
    offsets are forgotten.  Raises CausalityViolation listing every 1-based
    index where T_reg < T_prep.
    """
    bad = [
        i
        for i, (t_prep, t_reg) in enumerate(events, start=1)
        if t_reg < t_prep
    ]
    if bad:
        raise CausalityViolation(bad)
    return [
        LabEventRecord(i, float(t_prep), float(t_reg))
        for i, (t_prep, t_reg) in enumerate(events, start=1)
    ]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _record_stream(seed: int, index: int) -> np.random.Generator:
    # Philox is counter-based: keying each record by (seed, index) gives
    # independent streams that can be generated in any order or in parallel.
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _exponential_draw(rng: np.random.Generator, rate: float) -> float:
    # inverse CDF of the density rate * exp(-rate t); explicit so the mapping
    # from uniform draws to intervals is portable across implementations
    u = rng.random()
    return -np.log1p(-u) / rate


def sample_decay_ensemble(rate: float, n: int, scheme, seed: int) -> list[LabEventRecord]:
    """Draw n decay intervals from rate * e^{-rate t} and attach clock times.

    The interval of record i is drawn from its own Philox stream keyed by
    (seed, i), so identical (rate, n, scheme, seed) reproduce the ensemble
    bit for bit and the draws are independent of the preparation scheme: a
    simultaneous and a sequential run with the same seed share the same
    multiset of intervals.
    """
    if not (np.isfinite(rate) and rate > 0):
        raise InvalidRate(f"decay rate must be > 0, got {rate}")
    if n < 1:
        raise ValueError("need at least one event")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    scheme.check_length(n)
    records = []
    for i in range(1, n + 1):
        t_i = _exponential_draw(_record_stream(int(seed), i), rate)
        t_prep = scheme.prep_time(i)
        records.append(LabEventRecord(i, t_prep, t_prep + t_i, t_i))
    return records


def sample_from_survival(t_grid, survival, n: int, scheme, seed: int) -> list[LabEventRecord]:
    """Generic inverse-CDF hook: draw intervals from a tabulated survival curve.

    The curve must be nonincreasing from ~1; draws beyond its last point are
    clamped to the final grid time.  This is a sampling utility, not a
    physics model.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    surv = np.asarray(survival, dtype=float)
    if t_grid.size != surv.size or t_grid.size < 2:
        raise GridMismatch("survival table needs matching grids with >= 2 points")
    if np.any(np.diff(surv) > 1e-12):
        raise ValueError("survival values must be nonincreasing")
    if n < 1:
        raise ValueError("need at least one event")
    scheme.check_length(n)
    # invert S(t) = u by interpolation on the flipped table
    records = []
    for i in range(1, n + 1):
        u = _record_stream(int(seed), i).random()
        t_i = float(np.interp(u, surv[::-1], t_grid[::-1]))
        t_prep = scheme.prep_time(i)
        records.append(LabEventRecord(i, t_prep, t_prep + t_i, t_i))
    return records


# ---------------------------------------------------------------------------
# survival statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival fractions with Wilson-interval bands."""

    t: np.ndarray
    survival: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n: int
    z: float

    def to_csv(self, path):
        columns = (self.t, self.survival, self.survival - self.lower, self.upper - self.survival)
        _write_csv(path, SURVIVAL_CSV_HEADER, zip(*(c.tolist() for c in columns)))


def _wilson_bounds(k: int, n: int, z: float):
    z2 = z * z
    phat = k / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    # the interval contains phat analytically; clamp away the round-off
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


def survival_curve(records, t_grid, *, z: float = 1.0) -> SurvivalCurve:
    """Fraction of records still undecayed at each grid time.

    Counts t_param > t for t > 0 and t_param >= t at t = 0 (so the curve is
    exactly 1 at the start for any nonempty ensemble).  Error bands are
    Wilson score intervals at the given z.
    """
    records = list(records)
    if not records:
        raise EmptyEnsemble("no records")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise GridMismatch("empty time grid")
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be nondecreasing")
    tp = np.array([r.t_param for r in records])
    n = tp.size
    surv = np.empty(t_grid.size)
    lo = np.empty(t_grid.size)
    hi = np.empty(t_grid.size)
    for j, t in enumerate(t_grid):
        k = int(np.sum(tp >= t)) if t <= 0 else int(np.sum(tp > t))
        surv[j] = k / n
        lo[j], hi[j] = _wilson_bounds(k, n, z)
    return SurvivalCurve(t_grid, surv, lo, hi, n, float(z))


@dataclass(frozen=True)
class ComparisonReport:
    """Per-point z-scores of the empirical survival against theory."""

    t: np.ndarray
    empirical: np.ndarray
    theory: np.ndarray
    z_scores: np.ndarray

    @property
    def max_abs_z(self) -> float:
        finite = self.z_scores[np.isfinite(self.z_scores)]
        if np.any(~np.isfinite(self.z_scores)):
            return float("inf")
        return float(np.max(np.abs(finite))) if finite.size else 0.0


def compare_to_theory(records, theory, t_grid) -> ComparisonReport:
    """z-scores of the empirical survival curve against a theory curve P(t).

    The theory values must lie in [0, 1] and are rescaled by their value at
    the first grid point when that point is t = 0, since the empirical curve
    is conditioned on eventual registration and always starts at 1.  The
    binomial standard error uses the theory probability; points where it
    vanishes score 0 on exact agreement and +-inf otherwise.
    """
    records = list(records)
    if not records:
        raise EmptyEnsemble("no records")
    t_grid = np.asarray(t_grid, dtype=float)
    theory = np.asarray(theory, dtype=float)
    if t_grid.size == 0 or theory.size != t_grid.size:
        raise GridMismatch(
            f"theory curve has {theory.size} points for a grid of {t_grid.size}"
        )
    if np.any((theory < 0) | (theory > 1)):
        raise ValueError("theory values must lie in [0, 1]")
    scale = theory[0] if t_grid[0] == 0 and theory[0] > 0 else 1.0
    scaled = np.clip(theory / scale, 0.0, 1.0)
    curve = survival_curve(records, t_grid)
    n = curve.n
    sigma = np.sqrt(scaled * (1.0 - scaled) / n)
    z = np.empty(t_grid.size)
    for j in range(t_grid.size):
        diff = curve.survival[j] - scaled[j]
        if sigma[j] == 0:
            z[j] = 0.0 if diff == 0 else np.inf * np.sign(diff)
        else:
            z[j] = diff / sigma[j]
    return ComparisonReport(t_grid, curve.survival, scaled, z)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def events_to_csv(records, path):
    rows = ((int(r.index), r.t_prep, r.t_reg, r.t_param) for r in records)
    _write_csv(path, EVENTS_CSV_HEADER, rows)


def events_from_csv(path) -> list[LabEventRecord]:
    """Parse an events CSV; raises CausalityViolation listing bad indices."""
    _, (index, t_prep, t_reg, t) = _read_csv(path, EVENTS_CSV_HEADER, (int, float, float, float))
    bad = [i for i, prep, reg in zip(index, t_prep, t_reg) if reg < prep]
    if bad:
        raise CausalityViolation(bad)
    return list(map(LabEventRecord, index, t_prep, t_reg, t))


def events_to_json(records) -> str:
    return json.dumps(
        [
            {"i": r.index, "T_prep": r.t_prep, "T_reg": r.t_reg, "t": r.t_param}
            for r in records
        ]
    )
