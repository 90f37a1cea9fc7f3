"""Lab-clock ensembles: mapping, sampling, survival statistics, comparison."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    CausalityViolation,
    EmptyEnsemble,
    EventTable,
    GridMismatch,
    InvalidRate,
    InvalidSchemeLength,
    LabEventRecord,
    SequentialScheme,
    SimultaneousScheme,
    compare_to_theory,
    events_from_csv,
    events_to_csv,
    map_to_parameter_time,
    sample_decay_ensemble,
    sample_from_survival,
    survival_curve,
)
from hardylab.ensemble import _PHILOX_BLOCK, _philox_uniforms

# frozen regression values for seed 2026, rate 0.5, N = 10^4
GOLDEN_SEED = 2026
GOLDEN_MEAN = 2.0034344660514307
GOLDEN_MAX_Z = 1.5571356158160732
PHILOX_SEEDS = [0, 1, 12345, 2**63 - 1, 2**64 - 1]


def numpy_philox(seed, index):
    """The first uniform draw of numpy's Philox generator keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random()


class TestMapping:
    def test_simultaneous_examples(self):
        recs = map_to_parameter_time([(10, 11), (10, 12.5), (10, 10)])
        assert [r.t_param for r in recs] == [1.0, 2.5, 0.0]
        assert [r.index for r in recs] == [1, 2, 3]

    def test_violation_reports_index(self):
        with pytest.raises(CausalityViolation) as exc:
            map_to_parameter_time([(10, 11), (10, 9), (5, 4)])
        assert exc.value.indices == (2, 3)

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(0, 50, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mapping_depends_only_on_differences(self, pairs):
        events = [(t0, t0 + dt) for t0, dt in pairs]
        recs = map_to_parameter_time(events)
        for r, (t0, dt) in zip(recs, pairs):
            assert r.t_param >= 0
            assert r.t_param == pytest.approx(dt, abs=1e-9 * max(1, abs(t0)))

    def test_record_constructor_enforces_causality(self):
        with pytest.raises(CausalityViolation):
            LabEventRecord(1, 10.0, 9.0)


class TestSampler:
    def test_mean_matches_rate(self):
        recs = sample_decay_ensemble(0.5, 10_000, SimultaneousScheme(0.0), GOLDEN_SEED)
        tp = np.array([r.t_param for r in recs])
        se = (1 / 0.5) / np.sqrt(10_000)
        assert abs(tp.mean() - 2.0) <= 3 * se
        assert tp.mean() == pytest.approx(GOLDEN_MEAN)

    def test_single_event(self):
        recs = sample_decay_ensemble(1.0, 1, SimultaneousScheme(5.0), seed=0)
        assert len(recs) == 1
        assert recs[0].t_param >= 0
        assert recs[0].t_prep == 5.0

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            sample_decay_ensemble(0.0, 10, SimultaneousScheme(0.0), seed=0)
        with pytest.raises(InvalidRate):
            sample_decay_ensemble(-1.0, 10, SimultaneousScheme(0.0), seed=0)

    def test_scheme_too_short(self):
        with pytest.raises(InvalidSchemeLength):
            sample_decay_ensemble(1.0, 5, SequentialScheme((0.0, 1.0)), seed=0)

    def test_determinism_bit_exact(self):
        a = sample_decay_ensemble(0.7, 500, SimultaneousScheme(0.0), seed=31)
        b = sample_decay_ensemble(0.7, 500, SimultaneousScheme(0.0), seed=31)
        assert a == b

    def test_scheme_invariance_bit_exact(self):
        sim = sample_decay_ensemble(0.5, 1000, SimultaneousScheme(3.0), seed=9)
        seq = sample_decay_ensemble(
            0.5, 1000, SequentialScheme(tuple(np.arange(1000.0) * 7.0)), seed=9
        )
        assert [r.t_param for r in sim] == [r.t_param for r in seq]

    def test_generator_cannot_violate_causality(self):
        recs = sample_decay_ensemble(2.0, 2000, SimultaneousScheme(-5.0), seed=4)
        assert all(r.t_param >= 0 and r.t_reg >= r.t_prep for r in recs)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            sample_decay_ensemble(1.0, 3, SimultaneousScheme(0.0), seed)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            sample_from_survival([0.0, 1.0], [1.0, 0.0], 3, SimultaneousScheme(0.0), seed)

    def test_sequential_scheme_must_increase(self):
        with pytest.raises(ValueError):
            SequentialScheme((0.0, 0.0, 1.0))


class TestSurvivalCurve:
    def test_degenerate_all_zero(self):
        recs = map_to_parameter_time([(0, 0)] * 5)
        curve = survival_curve(recs, [0.0, 0.5, 1.0])
        assert curve.survival[0] == 1.0  # >= convention at t = 0
        assert np.all(curve.survival[1:] == 0.0)

    def test_single_record_step(self):
        recs = map_to_parameter_time([(0, 5)])
        curve = survival_curve(recs, [0.0, 4.9, 5.0, 5.1])
        assert list(curve.survival) == [1.0, 1.0, 0.0, 0.0]

    def test_exponential_within_wilson_bands(self):
        recs = sample_decay_ensemble(0.5, 10_000, SimultaneousScheme(0.0), GOLDEN_SEED)
        curve = survival_curve(recs, [1.0, 2.0, 4.0], z=3.0)
        exact = np.exp(-0.5 * np.array([1.0, 2.0, 4.0]))
        assert np.all(curve.lower <= exact)
        assert np.all(exact <= curve.upper)

    def test_nonincreasing_and_bounded(self):
        recs = sample_decay_ensemble(1.3, 777, SimultaneousScheme(0.0), seed=5)
        curve = survival_curve(recs, np.linspace(0, 10, 60))
        assert np.all(np.diff(curve.survival) <= 0)
        assert np.all((curve.survival >= 0) & (curve.survival <= 1))
        assert np.all(curve.lower <= curve.survival)
        assert np.all(curve.survival <= curve.upper)

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsemble):
            survival_curve([], [0.0, 1.0])

    def test_nan_grid_time_is_rejected(self):
        recs = map_to_parameter_time([(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="NaN"):
            survival_curve(recs, [0.0, np.nan, 1.5])


class TestCompare:
    def test_self_consistency_frozen_seed(self):
        recs = sample_decay_ensemble(0.5, 10_000, SimultaneousScheme(0.0), GOLDEN_SEED)
        t = np.linspace(0.0, 8.0, 41)
        report = compare_to_theory(recs, np.exp(-0.5 * t), t)
        assert report.max_abs_z <= 3.0
        assert report.max_abs_z == pytest.approx(GOLDEN_MAX_Z)

    def test_wrong_rate_is_detected(self):
        recs = sample_decay_ensemble(0.5, 10_000, SimultaneousScheme(0.0), GOLDEN_SEED)
        t = np.linspace(0.0, 8.0, 41)
        report = compare_to_theory(recs, np.exp(-1.0 * t), t)
        assert report.max_abs_z > 3.0

    def test_empty_grid(self):
        recs = map_to_parameter_time([(0, 1)])
        with pytest.raises(GridMismatch):
            compare_to_theory(recs, np.array([]), np.array([]))

    def test_length_mismatch(self):
        recs = map_to_parameter_time([(0, 1)])
        with pytest.raises(GridMismatch):
            compare_to_theory(recs, np.array([1.0, 0.5]), np.array([0.0]))

    def test_theory_range_validated(self):
        recs = map_to_parameter_time([(0, 1)])
        with pytest.raises(ValueError):
            compare_to_theory(recs, np.array([1.5]), np.array([0.0]))

    def test_nan_theory_is_rejected(self):
        recs = map_to_parameter_time([(0, 1), (0, 2)])
        with pytest.raises(ValueError, match=r"theory values must lie in \[0, 1\]"):
            compare_to_theory(recs, [1.0, np.nan], [0.0, 1.0])

    def test_theory_rescaled_by_value_at_zero(self):
        recs = sample_decay_ensemble(0.5, 5000, SimultaneousScheme(0.0), seed=12)
        t = np.linspace(0.0, 6.0, 25)
        # P(t) with P(0) = 0.25: empirical survival is conditioned on
        # registration, so the comparison divides the scale out
        report = compare_to_theory(recs, 0.25 * np.exp(-0.5 * t), t)
        assert report.max_abs_z <= 3.5


class TestInverseCdfHook:
    def test_reproduces_exponential_mean(self):
        t = np.linspace(0.0, 40.0, 4001)
        recs = sample_from_survival(
            t, np.exp(-0.5 * t), 20_000, SimultaneousScheme(0.0), seed=7
        )
        tp = np.array([r.t_param for r in recs])
        assert abs(tp.mean() - 2.0) < 0.06

    def test_requires_nonincreasing_table(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            sample_from_survival(t, t, 10, SimultaneousScheme(0.0), seed=0)

    def test_draws_equal_per_draw_interp(self):
        # a jump at t = 0.5 and two plateaus
        t = np.array([0.0, 0.5, 0.5, 1.0, 2.0, 3.0, 5.0])
        s = np.array([1.0, 0.8, 0.6, 0.6, 0.3, 0.3, 0.05])
        table = sample_from_survival(t, s, 3000, SimultaneousScheme(2.0), seed=5)
        want = [float(np.interp(numpy_philox(5, i), s[::-1], t[::-1])) for i in range(1, 3001)]
        assert table.t_param.tolist() == want
        assert table.t_reg.tolist() == [2.0 + x for x in want]

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            sample_from_survival([2.0, 1.0, 0.0], [1.0, 0.5, 0.1], 3, SimultaneousScheme(0.0), seed=0)

    @pytest.mark.parametrize(
        "t, s",
        [
            ([0.0, 1.0, np.inf], [1.0, 0.5, 0.1]),
            ([0.0, 1.0, np.nan], [1.0, 0.5, 0.1]),
            ([0.0, 1.0, 2.0], [1.0, np.nan, 0.1]),
            ([0.0, 1.0, 2.0], [np.inf, 0.5, 0.1]),
        ],
    )
    def test_rejects_non_finite_tables(self, t, s):
        with pytest.raises(ValueError, match="survival table must be finite"):
            sample_from_survival(t, s, 3, SimultaneousScheme(0.0), seed=0)


class TestVectorizedPhilox:
    @pytest.mark.parametrize("seed", PHILOX_SEEDS)
    def test_equals_numpy_philox(self, seed):
        want = [numpy_philox(seed, i) for i in range(1, 2001)]
        assert _philox_uniforms(seed, 2000).tolist() == want

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_equals_numpy_philox_for_any_seed(self, seed, n):
        want = [numpy_philox(seed, i) for i in range(1, n + 1)]
        assert _philox_uniforms(seed, n).tolist() == want

    def test_block_edges(self):
        n = 2 * _PHILOX_BLOCK + 3
        u = _philox_uniforms(77, n)
        for i in (1, _PHILOX_BLOCK, _PHILOX_BLOCK + 1, 2 * _PHILOX_BLOCK + 1, n):
            assert u[i - 1] == numpy_philox(77, i)

    def test_sampler_applies_the_inverse_cdf_per_record(self):
        table = sample_decay_ensemble(0.7, 300, SimultaneousScheme(0.0), seed=12345)
        want = [-np.log1p(-numpy_philox(12345, i)) / 0.7 for i in range(1, 301)]
        assert table.t_param.tolist() == want


def loop_survival(t_param, t_grid, z):
    """Survival fraction and Wilson band one grid point at a time."""
    n = len(t_param)
    rows = []
    for t in t_grid:
        k = sum(x >= t for x in t_param) if t <= 0 else sum(x > t for x in t_param)
        z2 = z * z
        phat = k / n
        denom = 1.0 + z2 / n
        center = (phat + z2 / (2 * n)) / denom
        half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
        rows.append((phat, min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)))
    return np.array(rows).T


def loop_z_scores(survival, theory, t_grid, n):
    scale = theory[0] if t_grid[0] == 0 and theory[0] > 0 else 1.0
    z = []
    for s, p in zip(survival, theory):
        p = min(max(p / scale, 0.0), 1.0)
        sigma = math.sqrt(p * (1.0 - p) / n)
        diff = s - p
        z.append(diff / sigma if sigma else (0.0 if diff == 0 else math.copysign(math.inf, diff)))
    return z


GRID_POINTS = [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]


class TestVectorizedStatistics:
    @given(
        t_param=st.lists(st.sampled_from(GRID_POINTS[1:]) | st.floats(0.0, 3.0), min_size=1, max_size=40),
        t_grid=st.lists(st.sampled_from(GRID_POINTS) | st.floats(-1.0, 3.0), min_size=1, max_size=12),
        theory=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=12, max_size=12),
        z=st.floats(0.5, 4.0),
        as_rows=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_the_per_point_loop(self, t_param, t_grid, theory, z, as_rows):
        # ties on grid points, t = 0 and theory values of 0 and 1 (sigma = 0)
        table = map_to_parameter_time([(0.0, t) for t in t_param])
        records = list(table) if as_rows else table
        t_grid = sorted(t_grid)
        curve = survival_curve(records, t_grid, z=z)
        survival, lower, upper = loop_survival(t_param, t_grid, z)
        assert curve.survival.tolist() == survival.tolist()
        assert curve.lower.tolist() == lower.tolist()
        assert curve.upper.tolist() == upper.tolist()
        theory = theory[: len(t_grid)]
        report = compare_to_theory(records, theory, t_grid)
        assert report.z_scores.tolist() == loop_z_scores(survival, theory, t_grid, len(t_param))


class TestEventTable:
    def test_rows_slices_and_equality(self):
        times = tuple(np.arange(10.0) * 3.0)
        table = sample_decay_ensemble(0.5, 10, SequentialScheme(times), seed=8)
        assert len(table) == 10
        rows = list(table)
        assert rows[3] == table[3] == LabEventRecord(4, 9.0, table.t_reg[3], table.t_param[3])
        assert type(rows[3].index) is int and type(rows[3].t_param) is float
        assert table[-1].index == 10
        with pytest.raises(IndexError):
            table[10]
        part = table[2:5]
        assert isinstance(part, EventTable)
        assert [r.index for r in part] == [3, 4, 5]
        assert part == EventTable([3, 4, 5], times[2:5], table.t_reg[2:5], table.t_param[2:5])
        assert table != part
        assert table == EventTable(*(c.copy() for c in table.columns()))
        nudged = table.t_param.copy()
        nudged[0] = np.nextafter(nudged[0], 1.0)
        assert table != EventTable(table.index, table.t_prep, table.t_reg, nudged)

    def test_violation_lists_every_bad_index(self):
        with pytest.raises(CausalityViolation) as exc:
            EventTable([1, 2, 3, 4], [0.0, 5.0, 0.0, 2.0], [1.0, 4.0, 1.0, 1.0])
        assert exc.value.indices == (2, 4)
        # a negative t within the clock-consistency tolerance
        with pytest.raises(CausalityViolation) as exc:
            EventTable([1, 2], [0.0, 0.0], [1.0, 0.0], [1.0, -1e-12])
        assert exc.value.indices == (2,)

    def test_record_checks_and_messages(self):
        with pytest.raises(ValueError, match="1-based"):
            EventTable([0], [0.0], [1.0])
        with pytest.raises(ValueError, match="clock times must be finite"):
            EventTable([1], [np.nan], [1.0])
        with pytest.raises(ValueError, match="record 2: t = 0.5 inconsistent with clock times"):
            EventTable([1, 2], [0.0, 0.0], [1.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="inconsistent"):
            EventTable([1], [0.0], [1.0], [np.nan])
        with pytest.raises(ValueError, match="equal length"):
            EventTable([1, 2], [0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="clock times must be finite"):
            LabEventRecord(1, 0.0, np.inf)

    def test_empty_table(self):
        table = map_to_parameter_time([])
        assert len(table) == 0 and list(table) == []
        with pytest.raises(EmptyEnsemble):
            survival_curve(table, [0.0])


class TestEventsCsv:
    def test_round_trip(self, tmp_path):
        recs = sample_decay_ensemble(0.5, 150, SimultaneousScheme(10.0), seed=2)
        path = tmp_path / "events.csv"
        events_to_csv(recs, path)
        back = events_from_csv(path)
        assert back == recs

    def test_tampered_file_reports_indices(self, tmp_path):
        recs = sample_decay_ensemble(0.5, 10, SimultaneousScheme(0.0), seed=2)
        path = tmp_path / "events.csv"
        events_to_csv(recs, path)
        lines = path.read_text().splitlines()
        parts = lines[4].split(",")
        parts[2] = repr(float(parts[1]) - 1.0)
        parts[3] = repr(-1.0)
        lines[4] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CausalityViolation) as exc:
            events_from_csv(path)
        assert 4 in exc.value.indices

    def test_tampered_registrations_list_every_index(self, tmp_path):
        path = tmp_path / "events.csv"
        events_to_csv(sample_decay_ensemble(0.5, 10, SimultaneousScheme(3.0), seed=2), path)
        lines = path.read_text().splitlines()
        for row in (2, 7, 9):
            # registration moved before preparation, t left as it was
            parts = lines[row].split(",")
            parts[2] = "2.5"
            lines[row] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CausalityViolation) as exc:
            events_from_csv(path)
        assert exc.value.indices == (2, 7, 9)

    def test_rows_written_from_records_or_table_are_identical(self, tmp_path):
        table = sample_decay_ensemble(0.5, 50, SequentialScheme(tuple(np.arange(50.0))), seed=6)
        events_to_csv(table, tmp_path / "table.csv")
        events_to_csv(list(table), tmp_path / "rows.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# one line each demo prints when its result holds
DEMO_KEY_LINES = {
    "01_hardy_pairs_and_criterion": "verdict: pass (pass)",
    "02_dispersion_relations": "acausal residual: 2.000e+00",
    "03_semigroup_and_decay": "verdict 'diverges'",
    "04_ensemble_statistics": "identical across schemes: True",
}


@pytest.mark.parametrize("demo", list(DEMO_KEY_LINES))
def test_demo_runs(tmp_path, demo):
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(root / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert DEMO_KEY_LINES[demo] in result.stdout
