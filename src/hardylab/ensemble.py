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
import operator
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
    """One preparation/registration pair on the lab clock: one row of an EventTable.

    t_param = T_reg - T_prep is the interval the microsystem spent
    undisturbed; the constructor runs the EventTable checks, so t_param >= 0.
    The sampler stores the drawn interval directly so that it is independent
    of the lab-clock offsets bit for bit (recomputing the difference would
    round it against large clock readings).
    """

    index: int
    t_prep: float
    t_reg: float
    t_param: float = None  # type: ignore[assignment]

    def __post_init__(self):
        t_param = None if self.t_param is None else [self.t_param]
        row = EventTable([self.index], [self.t_prep], [self.t_reg], t_param)
        for name in ("t_prep", "t_reg", "t_param"):
            object.__setattr__(self, name, float(getattr(row, name)[0]))

    @classmethod
    def _view(cls, index, t_prep, t_reg, t_param) -> "LabEventRecord":
        # a row of a checked table: skip the checks
        row = object.__new__(cls)
        row.__dict__.update(index=index, t_prep=t_prep, t_reg=t_reg, t_param=t_param)
        return row


class EventTable:
    """Lab events as numpy columns: index (int64), t_prep, t_reg, t_param (float64).

    t_param defaults to t_reg - t_prep.  The constructor checks every row:
    indices are 1-based, no registration precedes its preparation and no
    t_param is negative (CausalityViolation lists every bad index), clock
    times are finite, and t_param agrees with the clock times to 1e-9 of
    max(1, |T_prep|, |T_reg|).  len, iteration and integer indexing give
    LabEventRecord rows; a slice gives an EventTable; == compares the
    columns exactly.
    """

    __slots__ = ("index", "t_prep", "t_reg", "t_param")

    def __init__(self, index, t_prep, t_reg, t_param=None):
        index = np.asarray(index, dtype=np.int64)
        t_prep, t_reg = np.asarray(t_prep, dtype=float), np.asarray(t_reg, dtype=float)
        t_param = t_reg - t_prep if t_param is None else np.asarray(t_param, dtype=float)
        if index.ndim != 1 or any(c.shape != index.shape for c in (t_prep, t_reg, t_param)):
            raise ValueError("event columns must be one-dimensional and of equal length")
        if np.any(index < 1):
            raise ValueError("record index is 1-based")
        bad = (t_reg < t_prep) | (t_param < 0)
        if np.any(bad):
            raise CausalityViolation(index[bad].tolist())
        if not (np.all(np.isfinite(t_prep)) and np.all(np.isfinite(t_reg))):
            raise ValueError("clock times must be finite")
        scale = np.maximum(1.0, np.maximum(np.abs(t_prep), np.abs(t_reg)))
        # negated so that a NaN t_param fails too
        off = ~(np.abs(t_param - (t_reg - t_prep)) <= 1e-9 * scale)
        if np.any(off):
            j = np.argmax(off)
            raise ValueError(f"record {index[j]}: t = {t_param[j]} inconsistent with clock times")
        self.index, self.t_prep, self.t_reg, self.t_param = index, t_prep, t_reg, t_param

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.index, self.t_prep, self.t_reg, self.t_param

    def __len__(self) -> int:
        return self.index.size

    def __iter__(self):
        return map(LabEventRecord._view, *(c.tolist() for c in self.columns()))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return EventTable(*(c[key] for c in self.columns()))
        j = operator.index(key)
        return LabEventRecord._view(*(c[j].item() for c in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


def _as_table(records) -> EventTable:
    """records as an EventTable, converting any other iterable of records once."""
    if isinstance(records, EventTable):
        return records
    rows = [(r.index, r.t_prep, r.t_reg, r.t_param) for r in records]
    return EventTable(*zip(*rows)) if rows else EventTable([], [], [], [])


@dataclass(frozen=True)
class SimultaneousScheme:
    """All N microsystems prepared at the same clock instant T0."""

    t0: float = 0.0

    def prep_times(self, n: int) -> np.ndarray:
        return np.full(n, float(self.t0))

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

    def prep_times(self, n: int) -> np.ndarray:
        if len(self.times) < n:
            raise InvalidSchemeLength(f"scheme provides {len(self.times)} instants for {n} events")
        return np.array(self.times[:n])

    def to_json_dict(self):
        return {"kind": "sequential", "times": list(self.times)}


# ---------------------------------------------------------------------------
# mapping to the quantum time parameter
# ---------------------------------------------------------------------------

def map_to_parameter_time(events: Sequence[tuple]) -> EventTable:
    """Map (T_prep, T_reg) pairs onto parameter-time records.

    Every preparation is identified with t = 0, so the record's time
    parameter is just the difference of the clock readings; the lab-clock
    offsets are forgotten.  Raises CausalityViolation listing every 1-based
    index where T_reg < T_prep.
    """
    pairs = np.asarray(events, dtype=float).reshape(-1, 2)
    return EventTable(np.arange(1, len(pairs) + 1), pairs[:, 0], pairs[:, 1])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_SPLIT = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in _PHILOX_M)
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# draws per block: the block's working arrays stay in cache
_PHILOX_BLOCK = 1 << 14


def _mulhilo(m, x: np.ndarray):
    """Low and high 64-bit words of m * x, the high word from 32-bit halves."""
    m, m_lo, m_hi = m
    x_lo, x_hi = x & _LO32, x >> _32
    mid = m_hi * x_lo + ((m_lo * x_lo) >> _32)
    carry = (m_lo * x_hi + (mid & _LO32)) >> _32
    return m * x, m_hi * x_hi + (mid >> _32) + carry


def _philox_block(seed: int, start: int, stop: int) -> np.ndarray:
    key0, key1 = seed, np.arange(start + 1, stop + 1, dtype=np.uint64)
    # the first round maps the counter (1, 0, 0, 0) to (seed, 0, i, M0)
    c0, c1, c3 = (np.full(key1.size, v, dtype=np.uint64) for v in (seed, 0, _PHILOX_M[0]))
    c2 = key1
    for _ in range(9):
        key0 = (key0 + _PHILOX_W[0]) % 2**64
        key1 = key1 + np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(_PHILOX_SPLIT[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_SPLIT[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ key1, lo0
    return (c0 >> np.uint64(11)).astype(float) * 2.0**-53


def _philox_uniforms(seed: int, n: int) -> np.ndarray:
    """Record i's uniform draw for i = 1..n, the first .random() of Philox(key=[seed, i]).

    Philox is counter-based: keying each record by (seed, i) gives
    independent streams, so all n are computed at once, bit-identical to
    numpy's np.random.Generator(np.random.Philox(key=[seed, i])).random().
    """
    if n < 1:
        raise ValueError("need at least one event")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    blocks = range(0, n, _PHILOX_BLOCK)
    return np.concatenate([_philox_block(int(seed), a, min(n, a + _PHILOX_BLOCK)) for a in blocks])


def _schedule(scheme, t: np.ndarray) -> EventTable:
    # attach the scheme's preparation instants to the drawn intervals
    t_prep = scheme.prep_times(t.size)
    return EventTable(np.arange(1, t.size + 1), t_prep, t_prep + t, t)


def sample_decay_ensemble(rate: float, n: int, scheme, seed: int) -> EventTable:
    """Draw n decay intervals from rate * e^{-rate t} and attach clock times.

    The interval of record i is drawn from its own Philox stream keyed by
    (seed, i), so identical (rate, n, scheme, seed) reproduce the ensemble
    bit for bit and the draws are independent of the preparation scheme: a
    simultaneous and a sequential run with the same seed share the same
    multiset of intervals.  The inverse CDF is explicit so that the mapping
    from uniform draws to intervals is portable across implementations.
    """
    if not (np.isfinite(rate) and rate > 0):
        raise InvalidRate(f"decay rate must be > 0, got {rate}")
    return _schedule(scheme, -np.log1p(-_philox_uniforms(seed, n)) / rate)


def sample_from_survival(t_grid, survival, n: int, scheme, seed: int) -> EventTable:
    """Generic inverse-CDF hook: draw intervals from a tabulated survival curve.

    The table must be finite, on a nondecreasing time grid, and nonincreasing
    from ~1; draws beyond its last point are clamped to the final grid time.
    This is a sampling utility, not a physics model.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    surv = np.asarray(survival, dtype=float)
    if t_grid.size != surv.size or t_grid.size < 2:
        raise GridMismatch("survival table needs matching grids with >= 2 points")
    if not (np.all(np.isfinite(t_grid)) and np.all(np.isfinite(surv))):
        raise ValueError("survival table must be finite")
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be nondecreasing")
    if np.any(np.diff(surv) > 1e-12):
        raise ValueError("survival values must be nonincreasing")
    # invert S(t) = u by interpolation on the flipped table
    return _schedule(scheme, np.interp(_philox_uniforms(seed, n), surv[::-1], t_grid[::-1]))


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


def _wilson_bounds(k: np.ndarray, n: int, z: float):
    z2 = z * z
    phat = k / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    # the interval contains phat analytically; clamp away the round-off
    return np.minimum(np.maximum(0.0, center - half), phat), np.maximum(np.minimum(1.0, center + half), phat)


def survival_curve(records, t_grid, *, z: float = 1.0) -> SurvivalCurve:
    """Fraction of records still undecayed at each grid time.

    Counts t_param > t for t > 0 and t_param >= t at t <= 0 (so the curve is
    exactly 1 at the start for any nonempty ensemble).  Error bands are
    Wilson score intervals at the given z.
    """
    table = _as_table(records)
    if not len(table):
        raise EmptyEnsemble("no records")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise GridMismatch("empty time grid")
    if np.any(np.isnan(t_grid)):
        raise ValueError("time grid must not contain NaN")
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be nondecreasing")
    tp = np.sort(table.t_param)
    n = tp.size
    k = n - np.where(t_grid <= 0, np.searchsorted(tp, t_grid, "left"), np.searchsorted(tp, t_grid, "right"))
    lo, hi = _wilson_bounds(k, n, z)
    return SurvivalCurve(t_grid, k / n, lo, hi, n, float(z))


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
    table = _as_table(records)
    if not len(table):
        raise EmptyEnsemble("no records")
    t_grid = np.asarray(t_grid, dtype=float)
    theory = np.asarray(theory, dtype=float)
    if t_grid.size == 0 or theory.size != t_grid.size:
        raise GridMismatch(
            f"theory curve has {theory.size} points for a grid of {t_grid.size}"
        )
    if np.any(~((theory >= 0) & (theory <= 1))):
        raise ValueError("theory values must lie in [0, 1]")
    scale = theory[0] if t_grid[0] == 0 and theory[0] > 0 else 1.0
    scaled = np.clip(theory / scale, 0.0, 1.0)
    curve = survival_curve(table, t_grid)
    sigma = np.sqrt(scaled * (1.0 - scaled) / curve.n)
    diff = curve.survival - scaled
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma == 0, np.where(diff == 0, 0.0, np.copysign(np.inf, diff)), diff / sigma)
    return ComparisonReport(t_grid, curve.survival, scaled, z)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def events_to_csv(records, path):
    _write_csv(path, EVENTS_CSV_HEADER, zip(*(c.tolist() for c in _as_table(records).columns())))


def events_from_csv(path) -> EventTable:
    """Parse an events CSV; raises CausalityViolation listing bad indices."""
    _, columns = _read_csv(path, EVENTS_CSV_HEADER, (int, float, float, float))
    return EventTable(*columns)


def events_to_json(records) -> str:
    return json.dumps(
        [
            {"i": r.index, "T_prep": r.t_prep, "T_reg": r.t_reg, "t": r.t_param}
            for r in records
        ]
    )
