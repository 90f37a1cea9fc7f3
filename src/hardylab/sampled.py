"""Sampled complex functions of a real variable.

SampledComplexFunction is the numerical carrier for boundary values of Hardy
functions, energy wave functions, and time signals: complex samples on a
strictly increasing real grid, plus an optional rational-decay tail model
describing the function beyond the grid edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError

CSV_HEADER = "x,re,im"


@dataclass(frozen=True)
class TailModel:
    """Rational decay f(x) ~ c * x**(-p) for |x| beyond the grid edges.

    For integer p the signed value c / x**p is used on both ends of the real
    axis.  For non-integer p the negative-axis value is ill-defined, so only
    the magnitude bound |c| * |x|**(-p) is used (corrections are skipped and
    the uncorrected truncation enters the error estimate instead).
    """

    p: float
    c: complex

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p <= 0.5:
            raise ValueError(f"tail exponent must be > 1/2, got {self.p}")
        if not np.isfinite(self.c):
            raise ValueError("tail coefficient must be finite")
        object.__setattr__(self, "c", complex(self.c))

    @property
    def integer_p(self) -> int | None:
        p_round = round(self.p)
        if abs(self.p - p_round) < 1e-9 and p_round >= 1:
            return p_round
        return None

    def value(self, x):
        """Signed tail value c / x**p; requires integer p."""
        if self.integer_p is None:
            raise ValueError("signed tail value needs an integer exponent")
        return self.c / np.asarray(x, dtype=float) ** self.integer_p

    def bound(self, x):
        """Magnitude bound |c| |x|^-p, valid for any p > 1/2."""
        return abs(self.c) * np.abs(np.asarray(x, dtype=float)) ** (-self.p)

    def conjugate(self) -> "TailModel":
        return TailModel(self.p, np.conj(self.c))


@dataclass(frozen=True)
class SampledComplexFunction:
    """Complex samples on a strictly increasing finite real grid."""

    grid: np.ndarray
    values: np.ndarray
    tail: TailModel | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or values.ndim != 1:
            raise ValueError("grid and values must be one-dimensional")
        if grid.size != values.size:
            raise ValueError("grid and values must have equal length")
        if grid.size < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid contains non-finite entries")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values contain NaN or Inf")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.grid.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def __call__(self, x):
        """Linear interpolation of the samples (off-grid evaluation)."""
        x = np.asarray(x, dtype=float)
        re = np.interp(x, self.grid, self.values.real)
        im = np.interp(x, self.grid, self.values.imag)
        return re + 1j * im

    def with_tail(self, tail: TailModel | None) -> "SampledComplexFunction":
        return SampledComplexFunction(self.grid, self.values, tail)

    def with_values(self, values) -> "SampledComplexFunction":
        return SampledComplexFunction(self.grid, values, self.tail)

    def conjugate(self) -> "SampledComplexFunction":
        tail = self.tail.conjugate() if self.tail is not None else None
        return SampledComplexFunction(self.grid, np.conj(self.values), tail)

    # --- serialization ---------------------------------------------------

    def to_csv(self, path):
        """Write rows `x,re,im` with full double-precision round-trip."""
        columns = (self.grid, self.values.real, self.values.imag)
        _write_csv(path, CSV_HEADER, zip(*(c.tolist() for c in columns)))

    @classmethod
    def from_csv(cls, path, tail: TailModel | None = None) -> "SampledComplexFunction":
        linenos, columns = _read_csv(path, CSV_HEADER, min_rows=2)
        x, re, im = (np.array(col) for col in columns)
        drops = np.flatnonzero(np.diff(x) <= 0)
        if drops.size:
            raise CsvFormatError(linenos[drops[0] + 1], "x values must be strictly increasing")
        return cls(x, re + 1j * im, tail)

    def to_json_dict(self) -> dict:
        out = {
            "grid": [float(x) for x in self.grid],
            "re": [float(v) for v in self.values.real],
            "im": [float(v) for v in self.values.imag],
            "tail": None,
        }
        if self.tail is not None:
            out["tail"] = {
                "p": float(self.tail.p),
                "c": {"re": float(self.tail.c.real), "im": float(self.tail.c.imag)},
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SampledComplexFunction":
        tail = None
        if obj.get("tail") is not None:
            t = obj["tail"]
            tail = TailModel(t["p"], complex(t["c"]["re"], t["c"]["im"]))
        values = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
        return cls(np.array(obj["grid"], dtype=float), values, tail)

    @classmethod
    def from_json(cls, text: str) -> "SampledComplexFunction":
        return cls.from_json_dict(json.loads(text))


def is_uniform(grid) -> bool:
    """Whether the grid spacing is constant to 1e-9 of the first step (always, below 2 points)."""
    d = np.diff(grid)
    return d.size == 0 or bool(np.max(np.abs(d - d[0])) <= 1e-9 * abs(d[0]))


def uniform_grid(lo: float, hi: float, n: int = 4096) -> np.ndarray:
    """Uniform grid of n points on [lo, hi]."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if not hi > lo:
        raise ValueError("need hi > lo")
    return np.linspace(lo, hi, n)


def estimate_tail(f: SampledComplexFunction, fraction: float = 0.1) -> TailModel:
    """Estimate a rational tail model from the outer samples.

    Fits log|f| against log|x| on the outer `fraction` of each side to get the
    decay exponent (snapped to the nearest integer when within 0.2), then
    solves for the complex coefficient by least squares at the snapped
    exponent.  Intended for externally supplied CSV data that carries no tail
    descriptor.
    """
    n = len(f)
    k = max(4, int(n * fraction))
    exps = []
    for sl in (slice(0, k), slice(n - k, n)):
        x = f.grid[sl]
        v = f.values[sl]
        mask = (np.abs(x) > 0) & (np.abs(v) > 0)
        if mask.sum() >= 3:
            slope, _ = np.polyfit(np.log(np.abs(x[mask])), np.log(np.abs(v[mask])), 1)
            exps.append(-slope)
    if not exps:
        raise ValueError("cannot estimate tail: too few usable outer samples")
    p = float(np.mean(exps))
    p_int = round(p)
    if abs(p - p_int) < 0.2 and p_int >= 1:
        p = float(p_int)
        # signed basis available: least squares for complex c on both sides
        x = np.concatenate([f.grid[:k], f.grid[-k:]])
        v = np.concatenate([f.values[:k], f.values[-k:]])
        basis = x ** (-p_int)
        c = complex(np.vdot(basis, v) / np.vdot(basis, basis))
    else:
        # fractional exponent: magnitude-only coefficient from the right edge
        x = f.grid[-k:]
        v = f.values[-k:]
        c = complex(np.mean(np.abs(v) * np.abs(x) ** p))
    if p <= 0.5:
        raise ValueError(f"estimated tail exponent {p:.3f} is not square-integrable")
    return TailModel(p, c)


# ---------------------------------------------------------------------------
# the CSV format shared by every file the package reads or writes
# ---------------------------------------------------------------------------

def _write_csv(path, header: str, rows):
    """Write the header line, then one line per row of Python ints and floats.

    Floats are written as their repr, the shortest text that reads back to
    the same double.
    """
    line = ",".join(["%r"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def _read_csv(path, header, types=float, *, min_rows: int = 0) -> tuple[list[int], list[list]]:
    """The data columns of a CSV file, and the line number of every data row.

    header: the exact first line, in which case every row must have as many
        fields; or a sequence of column names, where a tuple entry lists
        alternatives (the first present wins), in which case only those
        columns are read, in that order.
    types: converter applied to every field read, or one converter per column.

    Blank lines are skipped but counted, so every CsvFormatError carries the
    file's own 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError(1, "empty file")
    names = lines[0].strip().split(",")
    exact = isinstance(header, str)
    if exact:
        if lines[0].strip() != header:
            raise CsvFormatError(1, f"expected header '{header}'")
        columns = range(len(names))
    else:
        columns = []
        for want in header:
            alternatives = (want,) if isinstance(want, str) else tuple(want)
            present = [n for n in alternatives if n in names]
            if not present:
                raise CsvFormatError(1, f"expected a column {' or '.join(map(repr, alternatives))}")
            columns.append(names.index(present[0]))
    need = len(names) if exact else max(columns) + 1
    linenos, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != need and (exact or len(parts) < need):
            at_least = "" if exact else "at least "
            raise CsvFormatError(lineno, f"expected {at_least}{need} fields, got {len(parts)}")
        linenos.append(lineno)
        rows.append(parts)
    if len(rows) < min_rows:
        raise CsvFormatError(len(lines), f"need at least {min_rows} data rows")
    fields = list(zip([types] * len(columns) if callable(types) else types, columns))
    try:
        return linenos, [list(map(f, [parts[i] for parts in rows])) for f, i in fields]
    except ValueError:
        for lineno, parts in zip(linenos, rows):
            try:
                for f, i in fields:
                    f(parts[i])
            except ValueError:
                raise CsvFormatError(lineno, f"bad field in {','.join(parts)!r}") from None
        raise
