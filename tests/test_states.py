"""Energy wave functions: constructors, semigroup evolution, state jump."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    Channel,
    EnergyWaveFunction,
    HalfPlane,
    InvalidSpec,
    LorentzianSpec,
    NegativeTime,
    NonAnalyticInput,
    PoleOnContinuationLine,
    SampledComplexFunction,
    SimplePole,
    TailModel,
    WaveKind,
    conjugate_wave,
    energy_distribution,
    evolve_observable,
    evolve_state,
    hardy_criterion,
    lorentzian_norm_integral,
    make_lorentzian_observable,
    make_lorentzian_state,
    retarded_propagator,
    semigroup_divergence_check,
    state_jump,
    uniform_grid,
    zero_like,
)

CH = Channel(0, 0)


def lorentzian_state(a=2.0, b=1.0):
    return make_lorentzian_state(LorentzianSpec(a, b, {CH: 1.0}))


def lorentzian_observable(a=2.0, b=1.0):
    return make_lorentzian_observable(LorentzianSpec(a, b, {CH: 1.0}))


class TestChannel:
    def test_range_constraint(self):
        Channel(2, -2)
        with pytest.raises(ValueError):
            Channel(1, 2)
        with pytest.raises(ValueError):
            Channel(-1, 0)

    def test_usable_as_dict_key_and_sortable(self):
        chans = {Channel(0, 0): 1, Channel(1, -1): 2}
        assert chans[Channel(0, 0)] == 1
        assert sorted(chans) == [Channel(0, 0), Channel(1, -1)]


class TestLorentzianConstructors:
    def test_normalized_coefficient(self):
        st_ = lorentzian_state(2.0, 1.0)
        c = st_.channels[CH].base.coefficient
        # integral of the bare Lorentzian is 2(pi/2 + arctan 4)
        assert abs(c) ** 2 == pytest.approx(1.0 / (np.pi + 2 * np.arctan(4.0)), rel=1e-12)
        assert st_.channels[CH].base.pole == 2 + 0.5j
        assert st_.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_norm_integral_closed_form_vs_quadrature(self):
        from scipy.integrate import quad

        val = lorentzian_norm_integral(2.0, 1.0)
        ref, _ = quad(lambda e: 1.0 / ((e - 2.0) ** 2 + 0.25), 0, np.inf)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_two_equal_channels_split_weight(self):
        spec = LorentzianSpec(2.0, 1.0, {Channel(0, 0): 1.0, Channel(1, 0): 1.0})
        st_ = make_lorentzian_state(spec)
        grid = np.linspace(0.01, 10, 200)
        per_channel = [
            np.abs(fn.value(grid)) ** 2 for fn in st_.channels.values()
        ]
        assert np.allclose(per_channel[0], per_channel[1])
        assert st_.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_observable_is_mirror(self):
        obs = lorentzian_observable(2.0, 1.0)
        assert obs.channels[CH].base.pole == 2 - 0.5j
        assert obs.kind is WaveKind.OBSERVABLE
        assert obs.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_conjugate_of_observable_is_state(self):
        spec = LorentzianSpec(2.0, 1.0, {CH: 0.3 + 0.4j})
        obs = make_lorentzian_observable(spec)
        st_ = make_lorentzian_state(spec)
        conj = conjugate_wave(obs)
        assert conj.kind is WaveKind.STATE
        c_conj = conj.channels[CH].base.coefficient
        c_st = st_.channels[CH].base.coefficient
        assert c_conj == pytest.approx(np.conj(c_st))
        assert conj.channels[CH].base.pole == st_.channels[CH].base.pole

    @pytest.mark.parametrize(
        "bad",
        [
            dict(peak=2.0, fwhm=0.0, coefficients={CH: 1.0}),
            dict(peak=2.0, fwhm=-1.0, coefficients={CH: 1.0}),
            dict(peak=-2.0, fwhm=1.0, coefficients={CH: 1.0}),
            dict(peak=2.0, fwhm=1.0, coefficients={}),
            dict(peak=2.0, fwhm=1.0, coefficients={CH: 0.0}),
        ],
    )
    def test_invalid_specs(self, bad):
        with pytest.raises(InvalidSpec):
            LorentzianSpec(bad["peak"], bad["fwhm"], bad["coefficients"])

    def test_spec_json_round_trip(self):
        spec = LorentzianSpec(2.0, 1.0, {CH: 0.3 + 0.4j, Channel(1, 1): -1j})
        back = LorentzianSpec.from_json_dict(spec.to_json_dict())
        assert back == spec

    def test_construction_rejects_wrong_class(self):
        # a state channel must be Hardy from below: pole above the axis
        with pytest.raises(InvalidSpec):
            EnergyWaveFunction(WaveKind.STATE, {CH: SimplePole(1.0, 2 - 0.5j)})


class TestEnergyDistribution:
    def test_normalization(self):
        st_ = lorentzian_state()
        grid = np.linspace(1e-4, 60, 4096)
        dist, norm = energy_distribution(st_, grid)
        assert norm == pytest.approx(1.0, abs=1e-6)
        C2 = abs(st_.channels[CH].base.coefficient) ** 2
        assert np.allclose(dist, C2 / ((grid - 2.0) ** 2 + 0.25))

    def test_zero_wave(self):
        z = zero_like(lorentzian_state())
        grid = np.linspace(0.1, 10, 64)
        dist, norm = energy_distribution(z, grid)
        assert np.max(dist) == 0.0
        assert norm == 0.0

    def test_channel_additivity(self):
        spec = LorentzianSpec(2.0, 1.0, {Channel(0, 0): 1.0, Channel(1, 0): 0.5j})
        w = make_lorentzian_state(spec)
        grid = np.linspace(0.1, 10, 128)
        total, _ = energy_distribution(w, grid)
        parts = sum(np.abs(fn.value(grid)) ** 2 for fn in w.channels.values())
        assert np.allclose(total, parts)


class TestSemigroupEvolution:
    def test_t0_is_identity(self):
        st_ = lorentzian_state()
        assert evolve_state(st_, 0.0) is st_

    @given(st.floats(min_value=-1e6, max_value=-1e-12, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_negative_time_always_raises_state(self, t):
        with pytest.raises(NegativeTime):
            evolve_state(lorentzian_state(), t)

    @given(st.floats(min_value=-1e6, max_value=-1e-12, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_negative_time_always_raises_observable(self, t):
        with pytest.raises(NegativeTime):
            evolve_observable(lorentzian_observable(), t)

    def test_modulus_preserved(self):
        st_ = lorentzian_state()
        grid = np.linspace(0.01, 20, 512)
        d0, _ = energy_distribution(st_, grid)
        d1, _ = energy_distribution(evolve_state(st_, 3.0), grid)
        assert np.max(np.abs(d0 - d1)) < 1e-14

    def test_composition_exact_for_analytic(self):
        st_ = lorentzian_state()
        rng = np.random.default_rng(11)
        grid = np.linspace(0.01, 20, 256)
        for _ in range(100):
            t1, t2 = rng.uniform(0, 10, size=2)
            once = evolve_state(st_, t1 + t2)
            twice = evolve_state(evolve_state(st_, t1), t2)
            v1 = once.channels[CH].value(grid)
            v2 = twice.channels[CH].value(grid)
            assert np.max(np.abs(v1 - v2)) < 5e-14

    def test_composition_sampled_channels(self):
        grid = uniform_grid(1e-3, 52.0, 2048)
        base = SimplePole(1, 2 + 0.5j).sample(grid)
        w = EnergyWaveFunction(WaveKind.STATE, {CH: base})
        t1, t2 = 0.7, 1.9
        once = evolve_state(w, t1 + t2).channels[CH].value(grid)
        twice = evolve_state(evolve_state(w, t1), t2).channels[CH].value(grid)
        assert np.max(np.abs(once - twice)) < 5e-13

    def test_hardy_class_closure(self):
        st_ = evolve_state(lorentzian_state(), 4.0)
        fn = st_.channels[CH]
        result = hardy_criterion(fn.base, HalfPlane.LOWER, [0.1, 1.0])
        assert result.verdict
        # the phase factor scales the line integral by exp(2 y tau) <= 1
        obs = evolve_observable(lorentzian_observable(), 4.0)
        result = hardy_criterion(obs.channels[CH].base, HalfPlane.UPPER, [0.1, 1.0])
        assert result.verdict

    def test_heisenberg_schroedinger_conjugation_identity(self):
        obs = lorentzian_observable()
        t = 2.5
        left = conjugate_wave(evolve_observable(obs, t))
        right = evolve_state(conjugate_wave(obs), t)
        grid = np.linspace(0.01, 20, 256)
        assert np.allclose(
            left.channels[CH].value(grid), right.channels[CH].value(grid)
        )

    def test_no_inverse_within_contract(self):
        st_ = lorentzian_state()
        moved = evolve_state(st_, 1.0)
        grid = np.linspace(1e-3, 102, 8192)
        ref = st_.channels[CH].value(grid)
        diffs = []
        for t_back in np.linspace(0.0, 5.0, 26):
            cand = evolve_state(moved, t_back).channels[CH].value(grid)
            diffs.append(np.trapezoid(np.abs(cand - ref) ** 2, grid))
        assert min(diffs) > 1e-3

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            evolve_state(lorentzian_observable(), 1.0)
        with pytest.raises(ValueError):
            evolve_observable(lorentzian_state(), 1.0)


class TestStateJump:
    def test_pole_moves_up(self):
        obs = lorentzian_observable(3.0, 0.6)
        jumped = state_jump(obs)
        assert jumped.kind is WaveKind.STATE
        assert jumped.channels[CH].base.pole == pytest.approx(3 + 0.3j)

    def test_distribution_preserved_pointwise(self):
        obs = lorentzian_observable(3.0, 0.6)
        jumped = state_jump(obs)
        grid = np.linspace(0.01, 30, 1024)
        d_obs, _ = energy_distribution(obs, grid)
        d_jmp, _ = energy_distribution(jumped, grid)
        assert np.max(np.abs(d_obs - d_jmp)) < 1e-15

    def test_involution_via_conjugation(self):
        obs = lorentzian_observable(3.0, 0.6)
        back = conjugate_wave(state_jump(obs))
        assert back.kind is WaveKind.OBSERVABLE
        assert back.channels[CH].base.as_terms() == obs.channels[CH].base.as_terms()

    def test_needs_observable(self):
        with pytest.raises(ValueError):
            state_jump(lorentzian_state())

    def test_jump_of_evolved_observable_is_valid_state(self):
        obs = evolve_observable(lorentzian_observable(), 2.0)
        jumped = state_jump(obs)
        assert jumped.channels[CH].phase_time == pytest.approx(2.0)
        result = hardy_criterion(jumped.channels[CH].base, HalfPlane.LOWER, [0.1, 1.0])
        assert result.verdict


class TestRetardedPropagator:
    def test_eleven_point_grid(self):
        st_ = lorentzian_state()
        grid = np.linspace(0.01, 20, 256)
        for t in np.linspace(-5, 5, 11):
            out = retarded_propagator(st_, t)
            if t < 0:
                assert out.is_zero
            else:
                expected = evolve_state(st_, t).channels[CH].value(grid)
                assert np.allclose(out.channels[CH].value(grid), expected)

    def test_zero_at_negative_identity_at_zero(self):
        st_ = lorentzian_state()
        assert retarded_propagator(st_, -2.0).is_zero
        assert retarded_propagator(st_, 0.0) is st_


class TestDivergenceCheck:
    def test_growth_law_matches_closed_form(self):
        st_ = lorentzian_state(2.0, 1.0)
        report = semigroup_divergence_check(st_, -1.0, [1.0, 2.0, 4.0])
        assert report.verdict == "diverges"
        C2 = abs(st_.channels[CH].base.coefficient) ** 2
        for g, v in zip(report.offsets, report.evolved_values):
            closed = np.exp(2.0 * 1.0 * g) * np.pi * C2 / (0.5 + g)
            assert abs(v - closed) <= 0.1 * closed

    def test_zero_time_is_precondition_violation(self):
        with pytest.raises(ValueError):
            semigroup_divergence_check(lorentzian_state(), 0.0, [1.0, 2.0])

    def test_zero_wave_is_degenerate(self):
        report = semigroup_divergence_check(zero_like(lorentzian_state()), -1.0, [1.0, 2.0])
        assert report.verdict == "no divergence"

    def test_line_through_a_pole_raises(self):
        # the offset 1 line Im z = -1 runs through the pole at 2 - i
        w = EnergyWaveFunction(WaveKind.STATE, {CH: SimplePole(1, 2 - 1j)}, validate=False)
        with pytest.raises(PoleOnContinuationLine):
            semigroup_divergence_check(w, -1.0, [1.0, 2.0])

    def test_sampled_channels_rejected(self):
        base = SimplePole(1, 2 + 0.5j).sample(uniform_grid(1e-3, 52.0, 1024))
        w = EnergyWaveFunction(WaveKind.STATE, {CH: base})
        with pytest.raises(NonAnalyticInput):
            semigroup_divergence_check(w, -1.0, [1.0, 2.0])


class TestWaveJson:
    def test_round_trip_analytic(self):
        st_ = evolve_state(lorentzian_state(), 1.5)
        back = EnergyWaveFunction.from_json(st_.to_json())
        assert back.kind is WaveKind.STATE
        fn0 = st_.channels[CH]
        fn1 = back.channels[CH]
        assert fn1.phase_time == fn0.phase_time
        assert fn1.base.as_terms() == fn0.base.as_terms()

    def test_round_trip_sampled(self):
        grid = uniform_grid(1e-3, 52.0, 256)
        base = SampledComplexFunction(
            grid, 1.0 / (grid - (2 + 0.5j)), TailModel(1.0, 1.0)
        )
        w = EnergyWaveFunction(WaveKind.STATE, {CH: base}, validate=False)
        back = EnergyWaveFunction.from_json(w.to_json(), validate=False)
        assert np.array_equal(back.channels[CH].base.values, base.values)
        assert back.channels[CH].base.tail == base.tail

    def test_round_trip_evolved_sampled(self):
        grid = uniform_grid(1e-3, 52.0, 256)
        base = SampledComplexFunction(
            grid, 1.0 / (grid - (2 + 0.5j)), TailModel(1.0, 1.0)
        )
        w = EnergyWaveFunction(WaveKind.STATE, {CH: base}, validate=False)
        back = EnergyWaveFunction.from_json(evolve_state(w, 1.5).to_json(), validate=False)
        assert np.array_equal(back.channels[CH].base.values, base.values)
        assert back.channels[CH].phase_time == 1.5
