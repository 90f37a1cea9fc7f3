"""Quadrature engine tests against independent oracles."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from hardylab import (
    NegativeTime,
    NonDecayingIntegrand,
    QuadratureSpec,
    SampledComplexFunction,
    SingularityOutsideGrid,
    SimplePole,
    TailModel,
    ToleranceNotMet,
    lorentzian_model,
    oscillatory_integral,
    pole_fourier_integral,
    pv_integral,
    rational_halfline_fourier,
    uniform_grid,
)
from hardylab.quadrature import (
    Method,
    _cauchy_sums_direct,
    _cauchy_sums_fft,
    expscaled_e1,
    filon_integral,
    fit_tail_expansion,
    fourier_integral_sampled,
    grid_weights,
    power_kernel_tail,
    power_tail_fourier,
)


def brute_halfline_pole(pole, t, edge=4000.0, n=2_000_001):
    """Dense Simpson + first integration-by-parts tail term; the oracle."""
    e = np.linspace(0.0, edge, n)
    val = simpson(np.exp(-1j * e * t) / (e - pole), x=e)
    if t > 0:
        val += np.exp(-1j * edge * t) / (edge - pole) / (1j * t)
    return val


class TestExpScaledE1:
    @pytest.mark.parametrize(
        "z",
        [
            0.05 + 0.1j,
            1 + 2j,
            -3 + 0.4j,
            10 - 10j,
            -15 - 30j,
            375 - 300j,
            50j,
            -15 - 300j,
            100 + 0j,
            -40 + 600j,
        ],
    )
    def test_against_mpmath(self, z):
        mp.mp.dps = 30
        ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
        assert abs(expscaled_e1(z) - ref) <= 1e-13 * abs(ref)


class TestPoleFourierIntegral:
    @pytest.mark.parametrize("pole", [2 + 0.5j, 2 - 0.1j, -1 + 2j, 0.5 - 2j])
    @pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
    def test_both_half_planes_vs_brute(self, pole, t):
        ref = brute_halfline_pole(pole, t)
        assert abs(pole_fourier_integral(pole, t) - ref) < 1e-6

    def test_real_negative_pole_is_tail_formula(self):
        # int_X^inf e^{-iEt}/E dE shifted: regular integrand, no residue term
        ref = brute_halfline_pole(-30.0, 0.7)
        assert abs(pole_fourier_integral(-30.0, 0.7) - ref) < 1e-6

    def test_pole_on_path_rejected(self):
        with pytest.raises(ValueError):
            pole_fourier_integral(3.0, 1.0)

    def test_large_t_no_overflow(self):
        # upper pole: e^{-ipt} alone would overflow near t ~ 300/Im(p)
        v = pole_fourier_integral(2 + 2.5j, 400.0)
        assert np.isfinite(v)
        # asymptotically K1 ~ i/(p t)
        assert abs(v - 1j / ((2 + 2.5j) * 400.0)) < 1e-5


class TestRationalHalflineFourier:
    def test_lorentzian_density_at_t0(self):
        # elementary antiderivative: (1/c) [arctan((E-a)/c)]_0^inf, c = 1/2
        terms = [(c, p, 1) for c, p in lorentzian_model(2.0, 1.0).as_terms()]
        expected = 2.0 * (np.pi / 2.0 + np.arctan(4.0))
        assert abs(rational_halfline_fourier(terms, 0.0) - expected) < 1e-12

    def test_double_pole_vs_brute(self):
        q = 2 + 2.5j
        e = np.linspace(0.0, 4000.0, 2_000_001)
        t = 7.0
        ref = simpson(np.exp(-1j * e * t) / (e - q) ** 2, x=e)
        ref += np.exp(-4000.0 * 1j * t) / (4000.0 - q) ** 2 / (1j * t)
        assert abs(rational_halfline_fourier([(1.0, q, 2)], t) - ref) < 1e-6

    def test_t0_divergence_detected(self):
        with pytest.raises(NonDecayingIntegrand):
            rational_halfline_fourier([(1.0, 2 + 0.5j, 1)], 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            rational_halfline_fourier([(1.0, 2 + 0.5j, 1)], -0.1)


class TestPowerTailFourier:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_vs_brute(self, q):
        edge, t = 30.0, 0.7
        e = np.linspace(edge, 50000.0, 4_000_001)
        ref = simpson(np.exp(-1j * e * t) * e ** (-q), x=e)
        ref += np.exp(-50000.0 * 1j * t) * 50000.0 ** (-q) / (1j * t)
        assert abs(power_tail_fourier(q, edge, t) - ref) < 1e-7

    def test_t0_elementary(self):
        assert power_tail_fourier(3, 10.0, 0.0) == pytest.approx(10.0 ** (-2) / 2)

    def test_t0_log_divergence(self):
        with pytest.raises(NonDecayingIntegrand):
            power_tail_fourier(1, 10.0, 0.0)


class TestPowerKernelTail:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_vs_mpmath(self, q, side):
        edge, z = 40.0, 3.0 - 0.7j
        mp.mp.dps = 25

        def integrand(x):
            return mp.mpc(x) ** (-q) / (mp.mpc(x) - z)

        if side > 0:
            ref = complex(mp.quad(integrand, [edge, mp.inf]))
        else:
            ref = complex(mp.quad(integrand, [-mp.inf, -edge]))
        assert abs(power_kernel_tail(q, edge, z, side) - ref) < 1e-10

    @pytest.mark.parametrize("side", [+1, -1])
    def test_exponent_sequence_matches_single_exponents(self, side):
        z = np.linspace(-60.0, 60.0, 41) + 0.3j
        together = power_kernel_tail((2, 3, 4), 50.0, z, side)
        assert together.shape == (41, 3)
        for k, q in enumerate((2, 3, 4)):
            single = power_kernel_tail(q, 50.0, z, side)
            assert np.max(np.abs(together[:, k] - single)) <= 1e-15 * np.max(np.abs(single))


class TestPvIntegral:
    def test_constant_is_exact_zero(self):
        g = SampledComplexFunction(np.linspace(-1, 1, 201), np.full(201, 2.5 + 1j))
        value, err = pv_integral(g, 0.0)
        assert value == 0
        assert err == 0

    def test_linear_integrand(self):
        x = np.linspace(-1, 1, 201)
        g = SampledComplexFunction(x, x.astype(complex))
        value, _ = pv_integral(g, 0.0)
        assert value.real == pytest.approx(2.0, abs=1e-12)

    def test_lorentzian_hilbert_value(self):
        # P int [1/(w^2+1)]/(w-1) dw = -pi * 1/((1)^2+1) * 1 = -pi/2
        g = lorentzian_model(0.0, 2.0).sample(uniform_grid(-50, 50, 4096))
        value, err = pv_integral(g, 1.0)
        assert abs(value - (-np.pi / 2)) < 1e-6
        assert abs(value - (-np.pi / 2)) <= err

    def test_even_function_cancels(self):
        g = lorentzian_model(0.0, 2.0).sample(uniform_grid(-80, 80, 4097))
        value, _ = pv_integral(g, 0.0)
        assert abs(value) < 1e-9

    def test_singularity_outside(self):
        g = SampledComplexFunction(np.linspace(-1, 1, 64), np.ones(64, complex))
        with pytest.raises(SingularityOutsideGrid):
            pv_integral(g, 2.0)

    def test_tolerance_not_met_on_coarse_grid(self):
        x = np.linspace(-5, 5, 33)
        g = SampledComplexFunction(x, np.exp(-(x**2)) * (1 + x**2) + 0j)
        with pytest.raises(ToleranceNotMet):
            pv_integral(g, 0.37, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))


class TestOscillatoryIntegral:
    def test_lorentzian_density_t0(self):
        value, err = oscillatory_integral(lorentzian_model(2.0, 1.0), 0.0)
        expected = 2.0 * (np.pi / 2.0 + np.arctan(4.0))
        assert abs(value - expected) < 1e-10

    def test_zero_model(self):
        from hardylab import ZERO_MODEL

        assert oscillatory_integral(ZERO_MODEL, 3.0).value == 0

    def test_pole_aware_vs_brute(self):
        # desk-scale version of the dense-quadrature oracle cross-check
        value, _ = oscillatory_integral(SimplePole(1, 2 + 0.5j), 5.0)
        ref = brute_halfline_pole(2 + 0.5j, 5.0)
        assert abs(value - ref) <= 1e-6

    def test_negative_time(self):
        with pytest.raises(NegativeTime):
            oscillatory_integral(SimplePole(1, 2 + 0.5j), -1.0)

    def test_sampled_needs_decaying_tail(self):
        grid = np.linspace(0, 50, 512)
        f = SampledComplexFunction(grid, 1 / (grid + 1) + 0j, TailModel(1.0, 1.0))
        with pytest.raises(NonDecayingIntegrand):
            oscillatory_integral(f, 1.0)
        f_no_tail = SampledComplexFunction(grid, 1 / (grid + 1) ** 2 + 0j)
        with pytest.raises(NonDecayingIntegrand):
            oscillatory_integral(f_no_tail, 1.0)

    def test_sampled_matches_pole_route(self):
        model = lorentzian_model(2.0, 1.0)
        f = model.sample(np.linspace(0.0, 102.0, 16385))
        for t in (0.0, 2.0, 17.0):
            sampled_val, sampled_err = oscillatory_integral(f, t)
            exact, _ = oscillatory_integral(model, t)
            assert abs(sampled_val - exact) <= max(sampled_err, 1e-7)

    def test_linearity(self):
        g1 = lorentzian_model(2.0, 1.0)
        g2 = lorentzian_model(4.0, 3.0)
        from hardylab import RationalSum

        combined = RationalSum(tuple(g1.terms) + tuple(g2.terms))
        t = 3.0
        v12, e12 = oscillatory_integral(combined, t)
        v1, e1 = oscillatory_integral(g1, t)
        v2, e2 = oscillatory_integral(g2, t)
        assert abs(v12 - (v1 + v2)) <= e1 + e2 + e12 + 1e-12

    def test_triangle_inequality_l1_bound(self):
        model = lorentzian_model(2.0, 1.0)
        l1 = 2.0 * (np.pi / 2.0 + np.arctan(4.0))  # integrand is positive
        for t in (0.0, 1.0, 10.0, 50.0):
            value, _ = oscillatory_integral(model, t)
            assert abs(value) <= l1 + 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestGridWeights:
    @pytest.mark.parametrize("method", list(Method))
    def test_one_point_grid(self, method):
        assert np.array_equal(grid_weights(np.array([0.0]), method), [0.0])


class TestCauchySums:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(16, 600),
        lo=st.floats(-5.0, 5.0),
        h=st.floats(0.01, 1.0),
        y=st.one_of(st.just(0.0), st.floats(0.05, 20.0), st.floats(-20.0, -0.05)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fft_equals_direct_on_uniform_grids(self, n, lo, h, y, seed):
        rng = np.random.default_rng(seed)
        x = lo + h * np.arange(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = _cauchy_sums_fft(x, u, 1j * y)
        direct = _cauchy_sums_direct(x, u, 1j * y)
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_zero_shift_leaves_out_the_diagonal(self):
        x = np.linspace(0.0, 3.0, 4)
        u = np.array([1.0, 2.0, 0.0, 0.0])
        # node 0 sees u_1 / (x_1 - x_0) only; node 1 sees u_0 / (x_0 - x_1) only
        for sums in (_cauchy_sums_fft(x, u), _cauchy_sums_direct(x, u)):
            assert np.allclose(sums, [2.0, -1.0, 1.0 / -2.0 + 2.0 / -1.0, 1.0 / -3.0 + 2.0 / -2.0])


def per_s_calls(x, g, s):
    """fourier_integral_sampled one scalar s at a time: the reference rule."""
    pairs = [fourier_integral_sampled(x, g, si) for si in s]
    return np.array([p.value for p in pairs]), np.array([p.error for p in pairs])


class TestFourierOverFrequencyArray:
    @pytest.mark.parametrize("n", [4097, 4096])
    @pytest.mark.parametrize(
        "s",
        [
            np.linspace(-20.0, 20.0, 801),
            np.linspace(-5.0, 5.0, 21),
            [0.5, 7.5],
            np.linspace(30.0, -10.0, 161),
            np.linspace(-1000.0, 1000.0, 3),
        ],
        # the last spacing puts chirp phases near 1e7 rad, which must not be rounded
        ids=["wide", "through-zero", "two-points", "descending", "coarse"],
    )
    def test_uniform_s_matches_per_s_calls(self, n, s):
        x = np.linspace(0.0, 60.0, n)
        g = np.exp(-0.5 * x) * np.sin(2 * x) + 0j
        value, error = fourier_integral_sampled(x, g, np.asarray(s))
        ref_value, ref_error = per_s_calls(x, g, s)
        peak = np.max(np.abs(ref_value))
        assert np.max(np.abs(value - ref_value)) <= 1e-12 * peak
        assert np.allclose(error, ref_error, rtol=1e-6, atol=1e-12 * peak)

    @pytest.mark.parametrize(
        "x, s",
        [
            (np.linspace(0.0, 60.0, 4097), np.array([-3.0, -1.0, 0.0, 0.5, 4.0])),
            (60.0 * np.linspace(0.0, 1.0, 4097) ** 2, np.linspace(-5.0, 5.0, 11)),
        ],
        ids=["nonuniform-s", "nonuniform-x"],
    )
    def test_other_grids_take_the_per_s_rule(self, x, s):
        g = np.exp(-0.5 * x) * np.sin(2 * x) + 0j
        value, error = fourier_integral_sampled(x, g, s)
        ref_value, ref_error = per_s_calls(x, g, s)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(error, ref_error)


class TestFilonEngine:
    def test_matches_plain_for_smooth_slow(self):
        x = np.linspace(0.0, 10.0, 1001)
        g = np.exp(-x) * (1 + 0j)
        exact = (1 - np.exp(-10.0 * (1 + 0.3j))) / (1 + 0.3j)
        assert abs(filon_integral(x, g, 0.3) - exact) < 1e-10
        assert abs(simpson(np.exp(-0.3j * x) * g, x=x) - exact) < 1e-10

    def test_high_frequency_accuracy(self):
        # plain quadrature dies at s h >> 1; Filon does not
        x = np.linspace(0.0, 10.0, 2001)
        g = np.exp(-x) * (1 + 0j)
        s = 200.0
        exact = (1 - np.exp(-10.0 * (1 + 1j * s))) / (1 + 1j * s)
        filon_err = abs(filon_integral(x, g, s) - exact)
        plain_err = abs(simpson(np.exp(-1j * s * x) * g, x=x) - exact)
        assert filon_err < 1e-8
        assert plain_err > 100 * filon_err

    def test_even_point_count_falls_back(self):
        x = np.linspace(0.0, 10.0, 1000)
        g = np.exp(-x) * (1 + 0j)
        exact = (1 - np.exp(-10.0 * (1 + 2j))) / (1 + 2j)
        assert abs(filon_integral(x, g, 2.0) - exact) < 1e-9

    def test_nonuniform_grid_uses_linear_pieces(self):
        x = 10.0 * np.linspace(0.0, 1.0, 4001) ** 2
        g = np.exp(-x) * (1 + 0j)
        s = 50.0
        exact = (1 - np.exp(-10.0 * (1 + 1j * s))) / (1 + 1j * s)
        value, err = fourier_integral_sampled(x, g, s)
        assert abs(value - exact) < 1e-5
        assert abs(value - exact) <= err

    def test_richardson_estimate_covers_error(self):
        x = np.linspace(0.0, 60.0, 4097)
        g = np.exp(-0.5 * x) * np.sin(2 * x) + 0j
        s = 40.0
        value, err = fourier_integral_sampled(x, g, s)
        exact = 0.0
        # damped sine transform: a/(a^2 + (b + i s)^2) with a=2, b=0.5
        exact = 2.0 / (4.0 + (0.5 + 1j * s) ** 2)
        assert abs(value - exact) <= max(err, 1e-10) + 1e-12


class TestTailExpansion:
    def test_exact_single_power_recovered(self):
        x = np.linspace(10.0, 100.0, 512)
        f = SampledComplexFunction(x, (2 - 1j) / x**2, TailModel(2.0, 2 - 1j))
        exp = fit_tail_expansion(f, +1)
        assert exp.exponents[0] == 2
        assert abs(exp.coeffs[0] - (2 - 1j)) < 1e-9
        assert exp.residual < 1e-12
