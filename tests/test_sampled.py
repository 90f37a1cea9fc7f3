"""Sampled function carrier: validation, serialization round-trips, tails."""

import numpy as np
import pytest

from hardylab import (
    AmplitudeMethod,
    AmplitudeResult,
    CsvFormatError,
    SampledComplexFunction,
    SimultaneousScheme,
    TailModel,
    amplitude_results_from_csv,
    amplitude_results_to_csv,
    estimate_tail,
    events_from_csv,
    events_to_csv,
    sample_decay_ensemble,
    survival_curve,
    uniform_grid,
)
from hardylab.cli import _read_theory_csv


class TestValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SampledComplexFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3, complex))

    def test_too_short(self):
        with pytest.raises(ValueError):
            SampledComplexFunction(np.array([0.0]), np.array([0j]))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            SampledComplexFunction(np.array([0.0, 1.0]), np.array([0j, np.nan + 0j]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledComplexFunction(np.array([0.0, 1.0]), np.zeros(3, complex))

    def test_tail_exponent_floor(self):
        with pytest.raises(ValueError):
            TailModel(0.5, 1.0)
        TailModel(0.6, 1.0)

    def test_immutable_arrays(self):
        f = SampledComplexFunction(np.array([0.0, 1.0]), np.array([1j, 2j]))
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestTailModel:
    def test_signed_value_needs_integer_exponent(self):
        t = TailModel(1.5, 2.0)
        assert t.integer_p is None
        with pytest.raises(ValueError):
            t.value(-3.0)

    def test_signed_value_integer(self):
        t = TailModel(2.0, 1 + 1j)
        assert t.value(-2.0) == (1 + 1j) / 4.0
        assert t.value(2.0) == (1 + 1j) / 4.0

    def test_bound_any_exponent(self):
        t = TailModel(0.75, 2j)
        assert t.bound(-16.0) == pytest.approx(2.0 * 16.0 ** (-0.75))


def _write_rows(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")


# every CSV reader of the package: (reader, header, two valid data rows)
CSV_READERS = {
    "sampled": (SampledComplexFunction.from_csv, "x,re,im", ["0.0,1.0,0.0", "1.0,2.0,0.5"]),
    "amplitude": (
        amplitude_results_from_csv,
        "t,re_a,im_a,p,err",
        ["0.0,0.5,0.0,0.25,1e-13", "1.0,0.25,-0.25,0.125,1e-13"],
    ),
    "events": (events_from_csv, "i,T_prep,T_reg,t", ["1,0.0,1.5,1.5", "2,0.0,0.5,0.5"]),
    "theory": (_read_theory_csv, "t,p", ["0.0,1.0", "1.0,0.5"]),
}


class TestCsv:
    """The CSV codec, through each of the four readers built on it."""

    def test_round_trip_is_lossless(self, tmp_path):
        grid = uniform_grid(-5, 5, 37)
        values = np.sin(grid) + 1j / (grid**2 + 1)
        f = SampledComplexFunction(grid, values)
        path = tmp_path / "f.csv"
        f.to_csv(path)
        g = SampledComplexFunction.from_csv(path)
        assert np.array_equal(f.grid, g.grid)
        assert np.array_equal(f.values, g.values)

        results = [
            AmplitudeResult.from_amplitude(t, np.exp(-0.3j * t) / (1 + t), AmplitudeMethod.QUADRATURE, 1e-9 * t)
            for t in grid[grid >= 0]
        ]
        amplitude_results_to_csv(results, path)
        assert amplitude_results_from_csv(path) == results
        t_col, p_col = _read_theory_csv(path)
        assert np.array_equal(t_col, [r.t for r in results])
        assert np.array_equal(p_col, [r.p for r in results])

        records = sample_decay_ensemble(0.5, 40, SimultaneousScheme(1e6 / 3), seed=7)
        events_to_csv(records, path)
        assert events_from_csv(path) == records
        curve = survival_curve(records, np.linspace(0.0, 6.0, 25))
        curve.to_csv(path)
        t_col, p_col = _read_theory_csv(path)
        assert np.array_equal(t_col, curve.t)
        assert np.array_equal(p_col, curve.survival)

    def test_header_checked_with_line_number(self, tmp_path):
        for name, (read, _, rows) in CSV_READERS.items():
            p = tmp_path / f"{name}.csv"
            _write_rows(p, "a,b,c", rows)
            with pytest.raises(CsvFormatError) as exc:
                read(p)
            assert exc.value.line == 1, name

    def test_bad_field_reports_line(self, tmp_path):
        # the blank line is skipped but still counted
        for name, (read, header, rows) in CSV_READERS.items():
            bad = rows[1].split(",")
            bad[1] = "zzz"
            p = tmp_path / f"{name}.csv"
            _write_rows(p, header, [rows[0], "", ",".join(bad)])
            with pytest.raises(CsvFormatError) as exc:
                read(p)
            assert exc.value.line == 4, name

    def test_non_increasing_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,re,im\n0.0,1.0,0.0\n0.0,1.0,0.0\n")
        with pytest.raises(CsvFormatError) as exc:
            SampledComplexFunction.from_csv(p)
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        for name, (read, _, _) in CSV_READERS.items():
            with pytest.raises(CsvFormatError) as exc:
                read(p)
            assert exc.value.line == 1, name

    @pytest.mark.parametrize("index", ["1.5", "1.0", "one", ""])
    def test_events_index_must_be_an_integer(self, tmp_path, index):
        p = tmp_path / "events.csv"
        _write_rows(p, "i,T_prep,T_reg,t", [f"{index},0.0,1.5,1.5"])
        with pytest.raises(CsvFormatError) as exc:
            events_from_csv(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "header, row",
        [
            ("t,p", "2.0,0.25"),
            ("t,survival,err_lo,err_hi", "2.0,0.25,0.01,0.02"),
            ("t,re_a,im_a,p,err", "2.0,0.3,-0.4,0.25,1e-12"),
        ],
    )
    def test_theory_reader_headers(self, tmp_path, header, row):
        p = tmp_path / "theory.csv"
        _write_rows(p, header, [row])
        t_col, p_col = _read_theory_csv(p)
        assert t_col.tolist() == [2.0]
        assert p_col.tolist() == [0.25]

    def test_theory_reader_needs_t_and_p(self, tmp_path):
        p = tmp_path / "theory.csv"
        _write_rows(p, "t,re_a,im_a", ["0.0,1.0,0.0"])
        with pytest.raises(CsvFormatError) as exc:
            _read_theory_csv(p)
        assert exc.value.line == 1


class TestJson:
    def test_round_trip_bit_exact_with_tail(self):
        grid = uniform_grid(0, 3, 17)
        f = SampledComplexFunction(
            grid, np.exp(1j * grid) / (1 + grid), TailModel(2.0, 0.1 - 0.7j)
        )
        g = SampledComplexFunction.from_json(f.to_json())
        assert np.array_equal(f.grid, g.grid)
        assert np.array_equal(f.values, g.values)
        assert g.tail == f.tail

    def test_round_trip_without_tail(self):
        f = SampledComplexFunction(np.array([0.0, 1.0]), np.array([1j, 2j]))
        g = SampledComplexFunction.from_json(f.to_json())
        assert g.tail is None
        assert np.array_equal(f.values, g.values)


class TestConjugate:
    def test_values_and_tail_conjugated(self):
        f = SampledComplexFunction(
            np.array([0.0, 1.0]), np.array([1 + 2j, 3 - 4j]), TailModel(1.0, 2j)
        )
        g = f.conjugate()
        assert np.array_equal(g.values, np.conj(f.values))
        assert g.tail.c == -2j


class TestEstimateTail:
    def test_recovers_inverse_power(self):
        grid = uniform_grid(-80, 80, 2048)
        f = SampledComplexFunction(grid, (3 - 2j) * grid / (grid**2 + 4))
        tail = estimate_tail(f)
        assert tail.p == 1.0
        assert abs(tail.c - (3 - 2j)) < 0.05

    def test_quadratic_decay(self):
        grid = uniform_grid(-80, 80, 2048)
        f = SampledComplexFunction(grid, 5.0 / (grid**2 + 4) + 0j)
        tail = estimate_tail(f)
        assert tail.p == 2.0
        assert abs(tail.c - 5.0) < 0.1
