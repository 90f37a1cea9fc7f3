"""Quadrature engine tests against independent oracles."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from hardylab import (
    Channel,
    EnergyWaveFunction,
    HalfPlane,
    NegativeTime,
    NonDecayingIntegrand,
    PoleOnContinuationLine,
    QuadratureSpec,
    RationalSum,
    SampledComplexFunction,
    SingularityOutsideGrid,
    SimplePole,
    TailModel,
    ToleranceNotMet,
    WaveKind,
    hardy_criterion,
    lorentzian_model,
    oscillatory_integral,
    pole_fourier_integral,
    pv_integral,
    rational_halfline_fourier,
    rational_line_integral,
    semigroup_divergence_check,
    titchmarsh_continuation,
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
    modulus_squared_terms,
    pole_sum_product,
    power_kernel_tail,
    power_tail_fourier,
)
from hardylab.states import ChannelFunction


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
        assert abs(rational_halfline_fourier(terms, 0.0).value - expected) < 1e-12

    def test_double_pole_vs_brute(self):
        q = 2 + 2.5j
        e = np.linspace(0.0, 4000.0, 2_000_001)
        t = 7.0
        ref = simpson(np.exp(-1j * e * t) / (e - q) ** 2, x=e)
        ref += np.exp(-4000.0 * 1j * t) / (4000.0 - q) ** 2 / (1j * t)
        assert abs(rational_halfline_fourier([(1.0, q, 2)], t).value - ref) < 1e-6

    def test_t0_divergence_detected(self):
        with pytest.raises(NonDecayingIntegrand):
            rational_halfline_fourier([(1.0, 2 + 0.5j, 1)], 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            rational_halfline_fourier([(1.0, 2 + 0.5j, 1)], -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="not finite"):
            rational_halfline_fourier([(1.0, 2 + 0.5j, 1)], t)

    @settings(max_examples=80, deadline=None)
    @given(
        poles=st.lists(
            st.complex_numbers(max_magnitude=6.0).filter(lambda p: abs(p.imag) >= 0.05), min_size=1, max_size=3
        ),
        picks=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(1, 3), st.complex_numbers(max_magnitude=5.0, allow_subnormal=False)
            ),
            min_size=1,
            max_size=8,
        ),
        t=st.one_of(st.just(0.0), st.floats(1e-3, 60.0)),
    )
    def test_estimate_equals_per_term_loop(self, poles, picks, t):
        # repeated poles: several picks may name the same pole, at equal or different orders
        terms = [(c, poles[i % len(poles)], m) for i, m, c in picks]
        if t == 0:
            # the t = 0 log form needs the order-1 coefficients to cancel
            terms.append((-sum(c for c, _, m in terms if m == 1), poles[0], 1))
        value, error = rational_halfline_fourier(terms, t)
        # the estimate as a loop of one-term kernel calls, one per term
        if t > 0:
            mag = sum(abs(c) * abs(rational_halfline_fourier([(1, p, m)], t).value) for c, p, m in terms)
        else:
            mag = abs(value)
        assert error == 1e-13 * max(1.0, mag)


class TestRationalLineIntegral:
    def test_lorentzian_density(self):
        # int dE / ((E - a)^2 + c^2) = pi / c over the real line
        terms = [(c, p, 1) for c, p in lorentzian_model(2.0, 1.0).as_terms()]
        value, error = rational_line_integral(terms)
        assert abs(value - 2.0 * np.pi) < 1e-14
        assert 0 < error < 1e-12

    def test_higher_orders_integrate_to_zero(self):
        value, _ = rational_line_integral([(1.0, 1 + 2j, 2), (3.0, -1 - 0.5j, 3)])
        assert value == 0

    def test_non_cancelling_order_one_diverges(self):
        with pytest.raises(NonDecayingIntegrand):
            rational_line_integral([(1.0, 2 + 0.5j, 1), (-0.5, 1 - 0.5j, 1)])

    def test_pole_on_the_line(self):
        with pytest.raises(PoleOnContinuationLine):
            rational_line_integral([(1.0, 2 + 0.5j, 1), (-1.0, 3 + 0j, 1)])


class TestPoleSumProduct:
    def test_matches_the_product_with_repeated_poles_and_a_constant(self):
        factors = [
            [(1 + 1j, 1 + 2j), (0.5, -1 + 0.5j)],
            [(2.0, 1 + 2j), (-1j, 3 - 1j)],
            [(0.3 - 0.2j, None), (0.7, 1 + 2j)],
        ]
        z = np.array([0.3 + 0.1j, -2.0 + 4j, 5.0 - 3j])
        product = np.prod([sum(c if p is None else c / (z - p) for c, p in f) for f in factors], axis=0)
        terms = pole_sum_product(factors)
        assert max(m for _, _, m in terms) == 3
        expanded = sum(c / (z - p) ** m for c, p, m in terms)
        assert np.allclose(expanded, product, rtol=1e-13, atol=0)

    def test_modulus_squared_on_a_shifted_line(self):
        model = RationalSum((SimplePole(1 + 2j, 1 + 1j), SimplePole(0.5j, -2 + 0.3j)))
        w = np.array([-3.0, 0.0, 0.7, 10.0])
        expanded = sum(c / (w - p) ** m for c, p, m in modulus_squared_terms(model, 0.4))
        assert np.allclose(expanded, np.abs(model(w + 0.4j)) ** 2, rtol=1e-13, atol=0)


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

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        model = lorentzian_model(2.0, 1.0)
        for g in (model, model.sample(np.linspace(0.0, 102.0, 1025))):
            with pytest.raises(ValueError, match="not finite"):
                oscillatory_integral(g, t)

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


# ---------------------------------------------------------------------------
# residue sums of analytic models against QUADPACK
# ---------------------------------------------------------------------------

QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-13, limit=1000)


def quad_complex(fn, lo, hi, breaks):
    """QUADPACK on [lo, hi] split at the breaks, Re and Im apart; (value, error)."""
    cuts = [lo] + sorted(b for b in set(breaks) if lo < b < hi) + [hi]
    value, error = 0j, 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        re, re_err = quad(lambda x: fn(x).real, a, b, **QUAD_OPTS)
        im, im_err = quad(lambda x: fn(x).imag, a, b, **QUAD_OPTS)
        value += complex(re, im)
        error += re_err + im_err
    return value, error


@st.composite
def pole_sets(draw, signs):
    """1-3 simple poles, |Im p| log-uniform in [1e-2, 10]; some repeated, some mirrored."""
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(n):
        mag = draw(st.floats(0.5, 2.0))
        phase = draw(st.floats(0.0, 2.0 * np.pi))
        sign = draw(st.sampled_from(signs))
        pole = complex(draw(st.floats(-5.0, 5.0)), sign * 10.0 ** draw(st.floats(-2.0, 1.0)))
        terms.append(SimplePole(mag * np.exp(1j * phase), pole))
    copy = draw(st.sampled_from(["none", "repeat", "mirror"]))
    if copy != "none" and n > 1:
        pole = terms[0].pole if copy == "repeat" or len(signs) == 1 else terms[0].pole.conjugate()
        terms[-1] = SimplePole(terms[-1].coefficient, pole)
    return RationalSum(tuple(terms))


def assert_agrees(value, error, ref, ref_error, scale=None):
    """Gap <= 1e-12 of the reference (or of a scale where it can vanish) and <= both estimates."""
    gap = abs(value - ref)
    assert gap <= 1e-12 * (abs(ref) if scale is None else scale)
    assert gap <= error + ref_error


class TestResidueSumsMatchQuadpack:
    @settings(max_examples=40, deadline=None)
    @given(model=pole_sets([-1.0]), gamma=st.floats(0.01, 10.0))
    # two terms at one pole whose coefficients nearly cancel: squared before
    # merging, the closed form was off by 1.5e-12 relative
    @example(
        model=RationalSum(
            (
                SimplePole(-0.4352307200188522 - 0.24611830560092732j, -1j),
                SimplePole(0.4387912809451864 + 0.2397127693021015j, -1j),
            )
        ),
        gamma=1.0,
    )
    def test_criterion(self, model, gamma):
        result = hardy_criterion(model, HalfPlane.UPPER, [gamma])
        ref, ref_err = quad_complex(
            lambda w: abs(model(w + 1j * gamma)) ** 2 + 0j, -np.inf, np.inf, [p.real for p in model.poles()]
        )
        assert_agrees(result.values[0], result.errors[0], ref.real, ref_err)

    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(pole_sets([-1.0]), pole_sets([-1.0, 1.0])), x=st.floats(-5.0, 5.0), y=st.floats(0.1, 10.0))
    def test_continuation_hardy_and_mixed_poles(self, model, x, y):
        z = complex(x, y)
        value, error = titchmarsh_continuation(model, HalfPlane.UPPER, z)
        integral, ref_err = quad_complex(
            lambda w: model(w + 0j) / (w - z), -np.inf, np.inf, [p.real for p in model.poles()] + [x]
        )
        # poles inside the half-plane add nothing, so the value can be 0
        scale = sum(abs(c / (z - p)) for c, p in model.as_terms())
        assert_agrees(value, error, integral / (2j * np.pi), ref_err / (2 * np.pi), scale)
        if model.hardy_class() is HalfPlane.UPPER:
            assert abs(value - model(z)) <= error

    @settings(max_examples=40, deadline=None)
    @given(model=pole_sets([-1.0, 1.0]))
    def test_norm(self, model):
        value = ChannelFunction(model).norm_squared()
        ref, ref_err = quad_complex(lambda e: abs(model(e + 0j)) ** 2 + 0j, 0.0, np.inf, [p.real for p in model.poles()])
        # the pole route's rule at t = 0
        assert_agrees(value, 1e-13 * max(1.0, abs(value)), ref.real, ref_err)

    @settings(max_examples=30, deadline=None)
    @given(
        model=pole_sets([1.0]),
        t=st.floats(-2.0, -0.1),
        offsets=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2, unique=True),
    )
    def test_divergence_check(self, model, t, offsets):
        w = EnergyWaveFunction(WaveKind.STATE, {Channel(0, 0): model}, validate=False)
        report = semigroup_divergence_check(w, t, offsets)
        for gamma, evolved, base in zip(report.offsets, report.evolved_values, report.base_values):
            for value, tau in ((evolved, t), (base, 0.0)):
                ref, ref_err = quad_complex(
                    lambda e: abs(np.exp(-1j * (e - 1j * gamma) * tau) * model(e - 1j * gamma)) ** 2 + 0j,
                    -np.inf,
                    np.inf,
                    [p.real for p in model.poles()],
                )
                assert_agrees(value, 1e-13 * max(1.0, abs(value)), ref.real, ref_err)
