"""Hardy criterion, dispersion relations, causal transform, continuation."""

import numpy as np
import pytest

from hardylab import hardy, quadrature
from hardylab import (
    ComplexExponentialSignal,
    DampedSine,
    DampedSineSignal,
    GridTooSparse,
    HalfPlane,
    MissingTailModel,
    NonCausalInput,
    NonIntegrableInput,
    NonPositiveOffset,
    PoleOnContinuationLine,
    RationalSum,
    SampledComplexFunction,
    SimplePole,
    TailModel,
    TruncationErrorExceeded,
    WrongHalfPlane,
    ZERO_MODEL,
    causal_transform,
    conjugate_hardy,
    dispersion_residual,
    extend_to_full_line,
    fit_rational_extension,
    hardy_criterion,
    hilbert_transform,
    titchmarsh_continuation,
    uniform_grid,
)

# The boundary pair h(w) = i/(w + i): Re = 1/(w^2+1), Im = w/(w^2+1), a
# Hardy-from-above function with pole at -i whose line integrals are
# pi/(b + gamma) with b = 1.
UNIT_LORENTZIAN = SimplePole(1j, -1j)


class TestCriterionAnalytic:
    def test_closed_form_line_integrals(self):
        model = SimplePole(1, 2 + 0.5j)
        result = hardy_criterion(model, HalfPlane.LOWER, [0.1, 1.0, 10.0])
        for g, v in zip(result.offsets, result.values):
            assert abs(v - np.pi / (0.5 + g)) <= 1e-6 * np.pi / (0.5 + g)
        assert result.verdict

    def test_zero_function_passes_both_planes(self):
        for hp in HalfPlane:
            result = hardy_criterion(ZERO_MODEL, hp, [0.5, 2.0])
            assert result.verdict
            assert result.values == (0.0, 0.0)

    def test_pole_inside_tested_plane(self):
        with pytest.raises(PoleOnContinuationLine):
            hardy_criterion(SimplePole(1, 2 + 0.5j), HalfPlane.UPPER, [0.4])

    def test_offsets_must_be_positive(self):
        with pytest.raises(NonPositiveOffset):
            hardy_criterion(UNIT_LORENTZIAN, HalfPlane.UPPER, [0.5, -1.0])
        with pytest.raises(NonPositiveOffset):
            hardy_criterion(UNIT_LORENTZIAN, HalfPlane.UPPER, [])

    def test_conjugation_duality_preserves_values(self):
        model = RationalSum((SimplePole(1 + 2j, 1 + 1j), SimplePole(0.5j, -2 + 0.3j)))
        direct = hardy_criterion(model, HalfPlane.LOWER, [0.2, 1.0, 5.0])
        flipped = hardy_criterion(model.conjugate(), HalfPlane.UPPER, [0.2, 1.0, 5.0])
        for a, b in zip(direct.values, flipped.values):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        assert direct.verdict and flipped.verdict


class TestCriterionSampled:
    def test_two_sided_samples_match_closed_form(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-60, 60, 2048))
        result = hardy_criterion(f, HalfPlane.UPPER, [0.5, 2.0])
        for g, v in zip(result.offsets, result.values):
            assert abs(v - np.pi / (1 + g)) < 0.02 * np.pi / (1 + g)
        assert result.verdict

    def test_tail_model_required(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-60, 60, 256)).with_tail(None)
        with pytest.raises(MissingTailModel):
            hardy_criterion(f, HalfPlane.UPPER, [0.5])

    def test_positive_axis_data_is_extended(self):
        # energy wave functions are sampled on E > 0 only; the rational
        # extension must reconstruct the negative-axis contribution
        model = SimplePole(1, 2 + 0.5j)
        f = model.sample(uniform_grid(1e-3, 52.0, 4096))
        result = hardy_criterion(f, HalfPlane.LOWER, [0.5, 2.0])
        for g, v in zip(result.offsets, result.values):
            assert abs(v - np.pi / (0.5 + g)) < 0.02 * np.pi / (0.5 + g)
        assert result.verdict


class TestHilbertTransform:
    def test_lorentzian_pair_im_to_re(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-50, 50, 4096))
        rec = hilbert_transform(f, HalfPlane.UPPER, "im")
        mask = np.abs(f.grid) <= 10.0
        rel = np.abs(rec.values.real[mask] - f.values.real[mask]) / np.abs(
            f.values.real[mask]
        )
        assert rel.max() <= 1e-3
        # given part is passed through untouched
        assert np.array_equal(rec.values.imag, f.values.imag)

    def test_lower_half_plane_signs(self):
        model = SimplePole(-1j, 1j)  # conj of the unit pair: Hardy from below
        f = model.sample(uniform_grid(-50, 50, 4096))
        rec = hilbert_transform(f, HalfPlane.LOWER, "im")
        mask = np.abs(f.grid) <= 10.0
        rel = np.abs(rec.values.real[mask] - f.values.real[mask]) / np.abs(
            f.values.real[mask]
        )
        assert rel.max() <= 1e-3

    def test_zero_in_zero_out(self):
        grid = uniform_grid(-10, 10, 128)
        f = SampledComplexFunction(grid, np.zeros(128, complex), TailModel(1.0, 0.0))
        rec = hilbert_transform(f, HalfPlane.UPPER, "im")
        assert np.max(np.abs(rec.values)) == 0.0

    def test_double_transform_is_minus_identity(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-50, 50, 4096))
        step1 = hilbert_transform(f, HalfPlane.UPPER, "im")
        step2 = hilbert_transform(step1, HalfPlane.UPPER, "re")
        mask = np.abs(f.grid) <= 10.0
        scale = np.max(np.abs(f.values.imag))
        err = np.abs(step2.values.imag[mask] - f.values.imag[mask]) / scale
        assert err.max() <= 2e-3

    def test_grid_too_sparse(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-5, 5, 8))
        with pytest.raises(GridTooSparse):
            hilbert_transform(f, HalfPlane.UPPER, "im")

    def test_missing_tail_raises_when_truncation_matters(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-50, 50, 1024)).with_tail(None)
        with pytest.raises(MissingTailModel):
            hilbert_transform(f, HalfPlane.UPPER, "im", tolerance=1e-6)

    def test_compact_data_works_without_tail(self):
        grid = uniform_grid(-20, 20, 512)
        vals = np.exp(-(grid**2)) + 0j
        f = SampledComplexFunction(grid, vals)
        rec = hilbert_transform(f, HalfPlane.UPPER, "re")
        assert np.all(np.isfinite(rec.values))


class TestDispersionResidual:
    def test_causal_passes_acausal_fails(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-50, 50, 4096))
        good = dispersion_residual(f, HalfPlane.UPPER)
        assert good.max_residual <= 1e-3
        flipped = f.with_values(-f.values.real + 1j * f.values.imag)
        bad = dispersion_residual(flipped, HalfPlane.UPPER)
        assert bad.max_residual >= 10 * 1e-3

    def test_pure_real_nonzero_input_fails(self):
        # a Hardy function with identically zero imaginary part must be zero;
        # anything else breaks the dispersion pairing by construction
        grid = uniform_grid(-30, 30, 1024)
        f = SampledComplexFunction(grid, np.exp(-(grid**2) / 4) + 0j, TailModel(2.0, 0.0))
        report = dispersion_residual(f, HalfPlane.UPPER)
        assert report.max_residual > 0.5


class TestCausalTransform:
    def test_complex_exponential_pair(self):
        sig = ComplexExponentialSignal(1.0, 0.5)
        grid = uniform_grid(-20, 20, 401)
        out = causal_transform(sig, grid)
        exact = sig.spectrum()(grid.astype(complex))
        assert np.max(np.abs(out.values - exact)) <= 1e-6

    def test_damped_sine_pair(self):
        sig = DampedSineSignal(2.0, 1.0)
        grid = uniform_grid(-20, 20, 401)
        out = causal_transform(sig, grid)
        exact = sig.spectrum()(grid.astype(complex))
        assert np.max(np.abs(out.values - exact)) <= 1e-6

    def test_zero_signal(self):
        t = uniform_grid(0, 10, 301)
        f = SampledComplexFunction(t, np.zeros(301, complex))
        out = causal_transform(f, uniform_grid(-5, 5, 51))
        assert np.max(np.abs(out.values)) == 0.0

    def test_output_is_hardy_from_above(self):
        out = causal_transform(ComplexExponentialSignal(1.0, 0.5), uniform_grid(-40, 40, 801))
        result = hardy_criterion(out, HalfPlane.UPPER, [0.1, 1.0, 10.0])
        assert result.verdict

    def test_noncausal_input_rejected(self):
        t = np.linspace(-5, 10, 301)
        vals = np.exp(-np.abs(t)) + 0j
        f = SampledComplexFunction(t, vals)
        with pytest.raises(NonCausalInput):
            causal_transform(f)

    def test_sampled_time_input_matches_descriptor(self):
        sig = DampedSineSignal(2.0, 1.0)
        t = uniform_grid(0, 25, 8193)
        f = SampledComplexFunction(t, sig.sample(t))
        grid = uniform_grid(-10, 10, 101)
        out = causal_transform(f, grid)
        exact = sig.spectrum()(grid.astype(complex))
        assert np.max(np.abs(out.values - exact)) < 1e-5

    def test_undecayed_signal_rejected(self):
        t = uniform_grid(0, 10, 301)
        f = SampledComplexFunction(t, np.cos(t) + 0j)
        with pytest.raises(NonIntegrableInput):
            causal_transform(f)

    def test_nonpositive_decay_rate_rejected(self):
        with pytest.raises(NonIntegrableInput):
            ComplexExponentialSignal(1.0, 0.0)


class TestTitchmarsh:
    def test_boundary_to_interior(self):
        model = SimplePole(1j, complex(-1, -0.5))  # i/(w + 1 + 0.5i)
        f = model.sample(uniform_grid(-60, 60, 4097))
        value, _ = titchmarsh_continuation(f, HalfPlane.UPPER, 1j)
        direct = 1j / (1j + 1 + 0.5j)
        assert abs(value - direct) <= 1e-4 * abs(direct)

    def test_zero_boundary_values(self):
        grid = uniform_grid(-30, 30, 1024)
        f = SampledComplexFunction(grid, np.zeros(1024, complex), TailModel(1.0, 0.0))
        value, _ = titchmarsh_continuation(f, HalfPlane.UPPER, 2 + 3j)
        assert abs(value) < 1e-12

    def test_real_axis_is_excluded(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-30, 30, 1024))
        with pytest.raises(WrongHalfPlane):
            titchmarsh_continuation(f, HalfPlane.UPPER, 3.0)
        with pytest.raises(WrongHalfPlane):
            titchmarsh_continuation(f, HalfPlane.UPPER, -1j)

    def test_model_input_agrees_with_direct_evaluation(self):
        model = SimplePole(1j, complex(-1, -0.5))
        value, _ = titchmarsh_continuation(model, HalfPlane.UPPER, 0.7 + 2j)
        assert abs(value - model(0.7 + 2j)) < 1e-9

    def test_consistency_sweep(self):
        # interior agreement wherever |Im z| >= 0.1 and |z| <= half grid radius
        model = SimplePole(1j, complex(-1, -0.5))
        f = model.sample(uniform_grid(-80, 80, 8193))
        rng = np.random.default_rng(7)
        for _ in range(12):
            z = complex(rng.uniform(-40, 40), rng.uniform(0.1, 40))
            value, _ = titchmarsh_continuation(f, HalfPlane.UPPER, z)
            direct = complex(model(z))
            assert abs(value - direct) <= 1e-4 * abs(direct)

    def test_tolerance_contract(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-30, 30, 128))
        with pytest.raises(TruncationErrorExceeded):
            titchmarsh_continuation(f, HalfPlane.UPPER, 0.5j, tolerance=1e-14)

    def test_tolerance_contract_for_models(self):
        # the residue sum's estimate is at rounding level, 1e-13 or more
        value, error = titchmarsh_continuation(UNIT_LORENTZIAN, HalfPlane.UPPER, 0.5j, tolerance=1e-12)
        assert abs(value - UNIT_LORENTZIAN(0.5j)) <= error <= 1e-12
        with pytest.raises(TruncationErrorExceeded):
            titchmarsh_continuation(UNIT_LORENTZIAN, HalfPlane.UPPER, 0.5j, tolerance=1e-16)

    def test_mixed_poles_keep_only_the_outside_residues(self):
        # the pole at 1 + 2i lies inside the upper half-plane and adds nothing
        inside, outside = SimplePole(2.0, 1 + 2j), SimplePole(1j, -1 - 0.5j)
        z = 0.3 + 0.8j
        value, _ = titchmarsh_continuation(RationalSum((inside, outside)), HalfPlane.UPPER, z)
        assert abs(value - outside(z)) <= 1e-15

    def test_missing_tail(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-30, 30, 512)).with_tail(None)
        with pytest.raises(MissingTailModel):
            titchmarsh_continuation(f, HalfPlane.UPPER, 1j)


class TestConjugateHardy:
    def test_simple_pole_tag_flip(self):
        m = SimplePole(2 + 1j, 1 - 0.25j)
        assert m.hardy_class() is HalfPlane.UPPER
        c = conjugate_hardy(m)
        assert c.hardy_class() is HalfPlane.LOWER
        assert c.poles() == (1 + 0.25j,)

    def test_involution(self):
        m = SimplePole(2 + 1j, 1 - 0.25j)
        cc = conjugate_hardy(conjugate_hardy(m))
        assert cc.as_terms() == m.as_terms()

    def test_real_zero_function_fixed_point(self):
        grid = uniform_grid(-2, 2, 32)
        f = SampledComplexFunction(grid, np.zeros(32, complex))
        g = conjugate_hardy(f)
        assert np.array_equal(g.values, f.values)

    def test_sampled_conjugation(self):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-10, 10, 64))
        g = conjugate_hardy(f)
        assert np.array_equal(g.values, np.conj(f.values))


class TestRationalExtension:
    def test_fit_recovers_exact_pole(self):
        model = SimplePole(0.4 - 0.1j, 2 + 0.5j)
        f = model.sample(uniform_grid(0.01, 52.0, 2048))
        fitted, resid = fit_rational_extension(f)
        assert resid < 1e-8
        assert abs(fitted.poles()[0] - (2 + 0.5j)) < 1e-6

    def test_extension_matches_model_on_negative_axis(self):
        model = SimplePole(0.4 - 0.1j, 2 + 0.5j)
        f = model.sample(uniform_grid(0.01, 52.0, 2048))
        extended, resid = extend_to_full_line(f)
        assert extended.grid[0] < -50.0
        neg = extended.grid < 0
        exact = model(extended.grid[neg].astype(complex))
        assert np.max(np.abs(extended.values[neg] - exact)) < 1e-6
        assert resid < 1e-8


def _per_s_fourier(x, g, s):
    pairs = [quadrature.fourier_integral_sampled(x, g, si) for si in s]
    return quadrature.ValueWithError(np.array([p.value for p in pairs]), np.array([p.error for p in pairs]))


def fast_and_direct(monkeypatch, compute):
    """compute() as shipped, then with direct O(n^2) Cauchy sums and per-frequency Filon."""
    fast = compute()
    with monkeypatch.context() as m:
        m.setattr(hardy, "cauchy_sums", quadrature._cauchy_sums_direct)
        m.setattr(hardy, "fourier_integral_sampled", _per_s_fourier)
        direct = compute()
    return fast, direct


def upper_hilbert(f, given):
    return hilbert_transform(f, HalfPlane.UPPER, given).values


def assert_close_to_peak(fast, direct, rel=1e-12):
    assert np.max(np.abs(np.asarray(fast) - direct)) <= rel * np.max(np.abs(direct))


class TestFastPathsMatchDirectSums:
    """Uniform grids take FFT forms of the sums; they agree with the direct sums to rounding."""

    @pytest.mark.parametrize("n", [4001, 4096])
    @pytest.mark.parametrize("given", ["re", "im"])
    def test_hilbert_transform(self, monkeypatch, n, given):
        f = SimplePole(1.3 + 0.4j, 0.7 - 1.1j).sample(uniform_grid(-50.0, 50.0, n))
        fast, direct = fast_and_direct(monkeypatch, lambda: upper_hilbert(f, given))
        assert_close_to_peak(fast, direct)

    @pytest.mark.parametrize("hp", [HalfPlane.UPPER, HalfPlane.LOWER])
    @pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
    def test_line_values(self, monkeypatch, hp, y):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-50.0, 50.0, 4001))
        f = f if hp is HalfPlane.UPPER else conjugate_hardy(f)
        (fast, fast_err), (direct, direct_err) = fast_and_direct(
            monkeypatch, lambda: hardy._continue_many(f, hp, hp.sign * y)
        )
        assert_close_to_peak(fast, direct)
        assert fast_err == direct_err

    def test_sampled_criterion(self, monkeypatch):
        f = UNIT_LORENTZIAN.sample(uniform_grid(-50.0, 50.0, 4001))
        offsets = [0.1, 1.0, 10.0]
        fast, direct = fast_and_direct(monkeypatch, lambda: hardy_criterion(f, HalfPlane.UPPER, offsets))
        assert_close_to_peak(fast.values, direct.values)
        assert np.allclose(fast.errors, direct.errors, rtol=1e-6, atol=0.0)

    def test_nonuniform_grid_takes_the_direct_sum(self, monkeypatch):
        f = UNIT_LORENTZIAN.sample(50.0 * np.sinh(np.linspace(-3.0, 3.0, 801)) / np.sinh(3.0))
        fast, direct = fast_and_direct(monkeypatch, lambda: upper_hilbert(f, "im"))
        assert np.array_equal(fast, direct)

    def test_acceptance_criteria_01_to_03_inputs(self, monkeypatch):
        grid = uniform_grid(-20.0, 20.0, 801)
        for signal in (ComplexExponentialSignal(1.0, 0.5), DampedSineSignal(2.0, 1.0)):
            fast, direct = fast_and_direct(monkeypatch, lambda: causal_transform(signal, grid).values)
            assert_close_to_peak(fast, direct)
        f = SimplePole(1j, -1j).sample(uniform_grid(-50.0, 50.0, 4096))
        fast, direct = fast_and_direct(monkeypatch, lambda: upper_hilbert(f, "im"))
        assert_close_to_peak(fast, direct)
        flipped = f.with_values(-f.values.real + 1j * f.values.imag)
        fast, direct = fast_and_direct(monkeypatch, lambda: dispersion_residual(flipped, HalfPlane.UPPER))
        assert_close_to_peak(fast.reconstruction.values, direct.reconstruction.values)
        assert abs(fast.max_residual - direct.max_residual) <= 1e-12 * direct.max_residual
