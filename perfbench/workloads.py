"""The benchmark's workloads.

A workload turns a generator seeded from (benchmark seed, pass index) into
one pass: input files in a work directory, the ``hardylab`` command lines to
run on them, and a check that compares what those commands wrote with
references from ``references.py``.  Every pass draws fresh physical
parameters, so nothing computed in one pass can be reused by the next, while
the amount of work per pass stays fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

# Pinned tolerances: |value - reference| / peak |reference| of the output set.
AMPLITUDE_TOL = 1e-4  # decay a(t); the quadrature route reaches ~1e-5
FIT_RATE_TOL = 0.05  # fitted decay rate against Gamma, as in acceptance criterion 07
TRANSFORM_TOL = 1e-6  # causal-transform against the closed form
DISPERSION_TOL = 1e-4  # kk-check reconstruction, central half of the grid
LINE_INTEGRAL_TOL = 5e-3  # hardy-check line integrals against pi |c|^2 / (|Im p| + gamma)
WILSON_TOL = 1e-9  # survival error bands against the Wilson interval
Z_TOL = 1e-9  # compare's max |z| against the recomputed one
Z_LIMIT = 3.0  # compare's default --z-limit, which sets the reference verdict

ACCURACY_FLOOR = 1e-16  # agreement to the last bit reads as 16 digits


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation did: exit code (None if it raised), stdout, error text."""

    exit_code: int | None
    stdout: str
    error: str


@dataclass
class Verdict:
    """What the checks of one pass found.

    ``max_err`` is the largest |value - reference| / peak |reference| over
    the numeric value checks; checks against a model parameter (the fitted
    rate) count toward ``wrong`` but not toward ``max_err``.
    """

    invocation_ok: list[bool]
    checked: int = 0
    wrong: int = 0
    max_err: float = 0.0
    err_points: int = 0
    err_covered: int = 0
    notes: list[str] = field(default_factory=list)

    def require(self, condition: bool, invocation: int, note: str) -> bool:
        if not condition:
            self.invocation_ok[invocation] = False
            self.notes.append(note)
        return condition

    def values(self, label, got, want, tol, invocation, *, accuracy=True):
        got = np.asarray(got)
        want = np.asarray(want)
        scale = float(np.max(np.abs(want))) or 1.0
        err = np.abs(got - want) / scale
        bad = int(np.count_nonzero(~(err <= tol)))
        self.checked += err.size
        self.wrong += bad
        if accuracy:
            self.max_err = max(self.max_err, float(np.max(err)))
        self.require(bad == 0, invocation, f"{label}: {bad}/{err.size} values beyond {tol:g}")

    def cover(self, reported_err, actual_err):
        """Count checked points whose reported error bound covers the actual error."""
        self.err_points += len(actual_err)
        self.err_covered += int(np.count_nonzero(np.asarray(reported_err) >= np.asarray(actual_err)))


@dataclass(frozen=True)
class Pass:
    invocations: list[list[str]]
    items: int
    check: Callable[[list[Outcome]], Verdict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: str
    sizes: dict
    build: Callable[[np.random.Generator, Path, dict], Pass]
    calibrated: bool  # pass times rescaled by calibration.py

    def prepare(self, rng: np.random.Generator, work: Path, size: str) -> Pass:
        return self.build(rng, work, self.sizes[size])


def pass_rng(seed: int, phase: int, index: int) -> np.random.Generator:
    """Inputs of pass `index` in `phase` (0 warm-up, 1 timed); same seed, same inputs."""
    return np.random.default_rng([seed, phase, index])


def accuracy_digits(max_err: float) -> float:
    return -math.log10(max(max_err, ACCURACY_FLOOR))


def _read_rows(path: Path, header: str, columns: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"{path.name}: {rows.shape[1]} columns, expected {columns}")
    return rows


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _write_csv(path: Path, header: str, *columns) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# decay-pole and decay-tabulated
# ---------------------------------------------------------------------------

T_MAX = 40.0


def _decay_pass(rng, work: Path, size: dict, *, tabulated: bool) -> Pass:
    e_r = rng.uniform(2.0, 3.0)
    gamma = rng.uniform(0.15, 0.25)
    peak = e_r + rng.uniform(-0.3, 0.3)
    fwhm = rng.uniform(4.0, 6.0)
    n_t = size["t_points"]
    t_grid = np.linspace(0.0, T_MAX, n_t)
    evolved = np.sort(rng.choice(np.arange(1, n_t), size=size["checked_evolved"], replace=False))
    checked = np.concatenate([[0], evolved])

    lorentzian = {"a": peak, "b": fwhm, "coefficients": [{"l": 0, "l3": 0, "re": 1.0}]}
    if tabulated:
        # graded toward E_r (spacing ~ sqrt((E - E_r)^2 + (Gamma/2)^2)), so linear
        # interpolation of delta is good to ~1e-7 rad; it runs past the 50 widths
        # beyond the peak that the quadrature route integrates over
        w = gamma / 2.0
        u = np.linspace(np.arcsinh(-e_r / w), np.arcsinh((peak + 60.0 * fwhm - e_r) / w), size["delta_points"])
        energies = e_r + w * np.sinh(u)
        phase = ref.breit_wigner_phase(energies, e_r, gamma)
        entry = {
            "kind": "phase_shift",
            "params": {
                "delta_samples": {
                    "grid": energies.tolist(),
                    "re": phase.tolist(),
                    "im": [0.0] * energies.size,
                }
            },
        }
    else:
        entry = {"kind": "resonance_pole", "params": {"e_r": e_r, "gamma": gamma}}
    config = _write_json(
        work / "decay.json",
        {
            "state": lorentzian,
            "observable": lorentzian,
            "smatrix": {"channels": [{"l": 0, "l3": 0, **entry}]},
            "t_min": 0.0,
            "t_max": T_MAX,
            "t_points": n_t,
        },
    )
    out = work / "decay.csv"
    args = ["decay", "--config", str(config), "-o", str(out)]
    args += ["--method", "auto"] if tabulated else ["--fit"]

    def check(outcomes: list[Outcome]) -> Verdict:
        v = Verdict([True])
        (o,) = outcomes
        if not v.require(o.exit_code == 0, 0, f"decay exited {o.exit_code}: {o.error.strip()[:200]}"):
            return v
        try:
            rows = _read_rows(out, "t,re_a,im_a,p,err", 5)
        except (OSError, ValueError) as exc:
            v.require(False, 0, f"decay output unreadable: {exc}")
            return v
        if not v.require(
            rows.shape[0] == n_t and np.array_equal(rows[:, 0], t_grid), 0, "decay t grid differs"
        ):
            return v
        want = np.array([ref.decay_amplitude(t, peak, fwhm, e_r, gamma) for t in t_grid[checked]])
        got = rows[checked, 1] + 1j * rows[checked, 2]
        v.values("a(t)", got, want, AMPLITUDE_TOL, 0)
        v.cover(rows[checked, 4], np.abs(got - want))
        # diagnose a known failure mode: the phase e^{-iEt} applied twice gives a(2t)
        limit = AMPLITUDE_TOL * np.max(np.abs(want))
        doubled = sum(
            abs(got[i] - ref.decay_amplitude(2.0 * t_grid[checked[i]], peak, fwhm, e_r, gamma)) <= limit
            for i in np.flatnonzero(np.abs(got - want) > limit)
        )
        if doubled:
            v.notes.append(f"{doubled} wrong a(t) equal the reference a(2t): evolution phase applied twice")
        if not tabulated:
            try:
                rate = float(_last_json(o.stdout)["fit"]["rate"])
            except (KeyError, TypeError, ValueError) as exc:
                v.require(False, 0, f"decay --fit printed no rate: {exc!r}")
                return v
            v.values("fit rate", [rate], [gamma], FIT_RATE_TOL, 0, accuracy=False)
        return v

    return Pass([args], n_t, check)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

OMEGA_SPAN = 20.0
X_SPAN = 50.0
OFFSETS = (0.1, 1.0, 10.0)


def _spectra(rng, work: Path, size: dict) -> Pass:
    a = rng.uniform(1.0, 5.0)
    b = rng.uniform(0.4, 0.8)
    p = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.5, -0.75))
    c = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    n_omega, n_x = size["omega_points"], size["samples"]

    ct_config = _write_json(
        work / "signal.json",
        {
            "signal": {"kind": "damped_sine", "a": a, "b": b},
            "omega_min": -OMEGA_SPAN,
            "omega_max": OMEGA_SPAN,
            "omega_points": n_omega,
        },
    )
    x = np.linspace(-X_SPAN, X_SPAN, n_x)
    f = ref.simple_pole(x, c, p)
    sampled = _write_csv(work / "hardy.csv", "x,re,im", x, f.real, f.imag)
    ct_out, kk_out = work / "transform.csv", work / "reconstructed.csv"
    invocations = [
        ["causal-transform", "--config", str(ct_config), "-o", str(ct_out)],
        ["kk-check", str(sampled), "-o", str(kk_out)],
        ["hardy-check", "--input", str(sampled), "--offsets", ",".join(map(str, OFFSETS))],
    ]

    def check(outcomes: list[Outcome]) -> Verdict:
        v = Verdict([True, True, True])
        # the sampled function is Hardy from above, so every command should pass
        for i, o in enumerate(outcomes):
            v.require(o.exit_code == 0, i, f"{invocations[i][0]} exited {o.exit_code}: {o.error.strip()[:200]}")

        if v.invocation_ok[0]:
            try:
                rows = _read_rows(ct_out, "x,re,im", 3)
            except (OSError, ValueError) as exc:
                v.require(False, 0, f"causal-transform output unreadable: {exc}")
            else:
                omega = np.linspace(-OMEGA_SPAN, OMEGA_SPAN, n_omega)
                if v.require(
                    rows.shape[0] == n_omega and np.allclose(rows[:, 0], omega, rtol=0, atol=1e-12),
                    0,
                    "causal-transform frequency grid differs",
                ):
                    want = ref.damped_sine_transform(rows[:, 0], a, b)
                    v.values("h(w)", rows[:, 1] + 1j * rows[:, 2], want, TRANSFORM_TOL, 0)

        if v.invocation_ok[1]:
            try:
                rows = _read_rows(kk_out, "x,re,im", 3)
                report = _last_json(outcomes[1].stdout)
            except (OSError, ValueError) as exc:
                v.require(False, 1, f"kk-check output unreadable: {exc}")
            else:
                v.require(report.get("pass") is True, 1, "kk-check verdict is not pass")
                if v.require(
                    rows.shape[0] == n_x and np.array_equal(rows[:, 0], x), 1, "kk-check grid differs"
                ):
                    # edge truncation dominates near the ends; compare on the central half
                    mid = np.abs(x) <= X_SPAN / 2.0
                    v.values("reconstruction", rows[mid, 1] + 1j * rows[mid, 2], f[mid], DISPERSION_TOL, 1)

        if v.invocation_ok[2]:
            try:
                report = _last_json(outcomes[2].stdout)
                got = [float(val) for val in report["values"]]
            except (KeyError, TypeError, ValueError) as exc:
                v.require(False, 2, f"hardy-check printed no values: {exc!r}")
            else:
                v.require(report.get("verdict") == "pass", 2, "hardy-check verdict is not pass")
                if v.require(len(got) == len(OFFSETS), 2, "hardy-check value count differs"):
                    want = [ref.simple_pole_line_integral(c, p, g) for g in OFFSETS]
                    v.values("line integrals", got, want, LINE_INTEGRAL_TOL, 2)
        return v

    return Pass(invocations, n_omega + 2 * n_x, check)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def _ensemble(rng, work: Path, size: dict) -> Pass:
    rate = rng.uniform(0.3, 1.0)
    seed = int(rng.integers(0, 2**63))
    n, n_t = size["events"], size["t_points"]
    t_max = 8.0 / rate
    grid = np.linspace(0.0, t_max, n_t)
    theory = np.exp(-rate * grid)
    theory_csv = _write_csv(work / "theory.csv", "t,p", grid, theory)
    events, survival = work / "events.csv", work / "survival.csv"
    invocations = [
        [
            "ensemble", "--rate", repr(rate), "--count", str(n), "--seed", str(seed),
            "--t-max", repr(t_max), "--t-points", str(n_t),
            "--events-out", str(events), "--survival-out", str(survival),
        ],
        ["compare", "--events", str(events), "--theory", str(theory_csv)],
    ]
    sample = np.unique(np.concatenate([[1, n], rng.integers(1, n + 1, size=min(n, 1000))]))

    def check(outcomes: list[Outcome]) -> Verdict:
        v = Verdict([True, True])
        o_ens, o_cmp = outcomes
        if not v.require(o_ens.exit_code == 0, 0, f"ensemble exited {o_ens.exit_code}: {o_ens.error.strip()[:200]}"):
            v.require(False, 1, "compare ran without an ensemble")
            return v
        try:
            ev = _read_rows(events, "i,T_prep,T_reg,t", 4)
            sv = _read_rows(survival, "t,survival,err_lo,err_hi", 4)
        except (OSError, ValueError) as exc:
            v.require(False, 0, f"ensemble output unreadable: {exc}")
            return v
        if not v.require(
            ev.shape[0] == n and np.array_equal(ev[:, 0], np.arange(1, n + 1)), 0, "event indices differ"
        ):
            return v
        # Philox(key=[seed, i]) draws, bit for bit, at sampled records
        want_t = np.array([ref.philox_interval(seed, int(i), rate) for i in sample])
        rows = ev[sample - 1]
        v.values("event t", rows[:, 3], want_t, 0.0, 0)
        v.values("event T_reg", rows[:, 2], want_t, 0.0, 0)
        v.require(np.all(rows[:, 1] == 0.0), 0, "event T_prep is not the preparation instant 0")

        if not v.require(
            sv.shape[0] == n_t and np.array_equal(sv[:, 0], grid), 0, "survival grid differs"
        ):
            return v
        k = ref.survival_counts(ev[:, 3], grid)
        want_s = k / n
        v.values("survival", sv[:, 1], want_s, 0.0, 0)
        lo, hi = ref.wilson_band(k, n)
        v.values("survival band", np.concatenate([sv[:, 2], sv[:, 3]]),
                 np.concatenate([want_s - lo, hi - want_s]), WILSON_TOL, 0)

        z = ref.max_abs_z(want_s, theory, n)
        expected = 2 if z > Z_LIMIT else 0
        if v.require(o_cmp.exit_code == expected, 1,
                     f"compare exited {o_cmp.exit_code}, reference verdict {expected}: {o_cmp.error.strip()[:200]}"):
            try:
                got_z = float(_last_json(o_cmp.stdout)["max_abs_z"])
            except (KeyError, TypeError, ValueError) as exc:
                v.require(False, 1, f"compare printed no max_abs_z: {exc!r}")
            else:
                v.values("max |z|", [got_z], [z], Z_TOL, 1)
        return v

    return Pass(invocations, n, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decay-pole",
            "Breit-Wigner S on the pole route: partial fractions and exponential-integral "
            "kernels, no Filon",
            "P(t) points",
            {
                "full": {"t_points": 401, "checked_evolved": 1},
                "tiny": {"t_points": 41, "checked_evolved": 1},
            },
            partial(_decay_pass, tabulated=False),
            True,
        ),
        Workload(
            "decay-tabulated",
            "the same resonance as a tabulated phase shift: Filon, tail fit and interpolation "
            "on the quadrature route, no E1 kernel",
            "P(t) points",
            {
                "full": {"t_points": 41, "delta_points": 20001, "checked_evolved": 3},
                "tiny": {"t_points": 5, "delta_points": 20001, "checked_evolved": 2},
            },
            partial(_decay_pass, tabulated=True),
            True,
        ),
        Workload(
            "spectra",
            "causal-transform, kk-check and hardy-check: O(n^2) Hilbert and Cauchy sums and "
            "per-frequency Filon, no transition or ensemble work",
            "grid points",
            {
                "full": {"omega_points": 801, "samples": 4001},
                "tiny": {"omega_points": 41, "samples": 4001},
            },
            _spectra,
            False,
        ),
        Workload(
            "ensemble",
            "10^4 per-record Philox draws, an events CSV written and read back, survival "
            "counting and compare; no quadrature",
            "events",
            {
                "full": {"events": 10_000, "t_points": 1000},
                "tiny": {"events": 2000, "t_points": 100},
            },
            _ensemble,
            True,
        ),
    )
}
