"""Transition amplitudes, S-matrix models, picture equivalence, decay rates."""

import json

import numpy as np
import pytest

from hardylab import (
    AmplitudeMethod,
    Channel,
    EnergyWaveFunction,
    IncompatibleChannels,
    LorentzianSpec,
    NegativeTime,
    PhaseShift,
    ResonancePole,
    SampledComplexFunction,
    SMatrixModel,
    UnitS,
    amplitude_results_from_csv,
    amplitude_results_to_csv,
    amplitude_results_to_json,
    evolve_observable,
    evolve_state,
    fit_exponential_rate,
    make_lorentzian_observable,
    make_lorentzian_state,
    transition_amplitude,
    transition_probability,
)

CH = Channel(0, 0)

# frozen before the build: brute-force Simpson on 10^6+1 nodes over [0, 5000]
# plus the analytic E^-2 remainder, for the integrand |C|^2/(E-(2+0.5i))^2
GOLDEN_A0_UNIT_LORENTZIAN = -0.0812307468037306 + 0.020307686701263337j


def fixtures(a=2.0, b=1.0):
    state = make_lorentzian_state(LorentzianSpec(a, b, {CH: 1.0}))
    obs = make_lorentzian_observable(LorentzianSpec(a, b, {CH: 1.0}))
    return obs, state


def breit_wigner_phase_samples(e_r, gamma, e_max, n=20001):
    """delta(E) with e^{2i delta} = ResonancePole(e_r, gamma), on a grid graded toward e_r."""
    w = gamma / 2.0
    u = np.linspace(np.arcsinh(-e_r / w), np.arcsinh((e_max - e_r) / w), n)
    e = e_r + w * np.sinh(u)
    return SampledComplexFunction(e, np.arctan2(w, e_r - e) + 0j)


def sampled_on_quadrature_grid(w):
    """w with its channel sampled on the quadrature grid of the b = 5 fixtures.

    On the quadrature route's own nodes no interpolation error enters a
    comparison against the analytic wave function.
    """
    grid = np.linspace(0.0, 252.0, 32769)
    return EnergyWaveFunction(w.kind, {CH: w.channels[CH].base.sample(grid)}, validate=False)


# (S-matrix under test, rational S-matrix with the same values on E > 0)
S_PAIRS = {
    "resonance_pole": lambda: (ResonancePole(2.0, 0.2), ResonancePole(2.0, 0.2)),
    "callable_phase": lambda: (PhaseShift(lambda e: np.full_like(e, 0.3)), PhaseShift(0.3)),
    # the quadrature grid of the b = 5 fixtures ends at 2 + 50 * 5 = 252
    "sampled_phase": lambda: (
        PhaseShift(breit_wigner_phase_samples(2.0, 0.2, 302.0)),
        ResonancePole(2.0, 0.2),
    ),
}


class TestSMatrixModels:
    def test_unit(self):
        assert np.all(UnitS().value(np.linspace(0, 10, 5)) == 1.0)

    def test_resonance_pole_location_and_unitarity(self):
        s = ResonancePole(2.0, 0.2)
        assert s.pole == 2 - 0.1j
        e = np.linspace(0.01, 20, 512)
        assert np.max(np.abs(np.abs(s.value(e)) - 1.0)) < 1e-12

    def test_resonance_validation(self):
        with pytest.raises(ValueError):
            ResonancePole(-1.0, 0.2)
        with pytest.raises(ValueError):
            ResonancePole(2.0, 0.0)

    def test_phase_shift_unimodular(self):
        e = np.linspace(0.01, 20, 128)
        for delta in (0.3, lambda x: 0.1 * x):
            s = PhaseShift(delta)
            assert np.max(np.abs(np.abs(s.value(e)) - 1.0)) < 1e-12

    def test_missing_channel_defaults_to_unit(self):
        model = SMatrixModel({CH: ResonancePole(2.0, 0.2)})
        other = Channel(1, 0)
        assert isinstance(model.entry(other), UnitS)

    def test_json_round_trip(self):
        model = SMatrixModel(
            {
                Channel(0, 0): ResonancePole(2.0, 0.2, background=0.5 - 0.1j),
                Channel(1, 0): PhaseShift(0.7),
                Channel(1, 1): UnitS(),
            }
        )
        back = SMatrixModel.from_json(model.to_json())
        e = np.linspace(0.01, 10, 64)
        for ch in model.channels:
            assert np.allclose(back.entry(ch).value(e), model.entry(ch).value(e))

    def test_malformed_channel_key(self):
        with pytest.raises(IncompatibleChannels):
            SMatrixModel({(0, 0): UnitS()})


class TestTransitionAmplitude:
    def test_disjoint_channels_vanish(self):
        state = make_lorentzian_state(LorentzianSpec(2.0, 1.0, {Channel(0, 0): 1.0}))
        obs = make_lorentzian_observable(LorentzianSpec(2.0, 1.0, {Channel(1, 0): 1.0}))
        for t in (0.0, 1.0, 7.0):
            r = transition_amplitude(obs, state, SMatrixModel.unit(), t)
            assert r.a == 0
            assert r.p == 0

    def test_golden_a0(self):
        obs, state = fixtures()
        r = transition_amplitude(obs, state, SMatrixModel.unit(), 0.0)
        assert abs(r.a - GOLDEN_A0_UNIT_LORENTZIAN) < 1e-9

    def test_negative_time(self):
        obs, state = fixtures()
        with pytest.raises(NegativeTime):
            transition_amplitude(obs, state, SMatrixModel.unit(), -0.5)

    def test_argument_kinds_enforced(self):
        obs, state = fixtures()
        with pytest.raises(ValueError):
            transition_amplitude(state, state, SMatrixModel.unit(), 0.0)
        with pytest.raises(ValueError):
            transition_amplitude(obs, obs, SMatrixModel.unit(), 0.0)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 20.0])
    def test_methods_agree_unit_s(self, t):
        obs, state = fixtures()
        rp = transition_amplitude(obs, state, SMatrixModel.unit(), t)
        rq = transition_amplitude(obs, state, SMatrixModel.unit(), t, method="quadrature")
        assert rp.method is AmplitudeMethod.POLE_RESIDUE
        assert rq.method is AmplitudeMethod.QUADRATURE
        assert abs(rp.a - rq.a) <= rp.error_estimate + rq.error_estimate

    @pytest.mark.parametrize("t", [0.0, 5.0, 40.0, 80.0])
    def test_methods_agree_resonance(self, t):
        obs, state = fixtures(2.0, 5.0)
        s = SMatrixModel({CH: ResonancePole(2.0, 0.2)})
        rp = transition_amplitude(obs, state, s, t)
        rq = transition_amplitude(obs, state, s, t, method="quadrature")
        assert abs(rp.a - rq.a) <= rp.error_estimate + rq.error_estimate

    def test_pole_route_requires_rational(self):
        obs, state = fixtures()
        s = SMatrixModel({CH: PhaseShift(lambda e: 0.1 * e)})
        with pytest.raises(ValueError):
            transition_amplitude(obs, state, s, 1.0, method="pole_residue")
        r = transition_amplitude(obs, state, s, 1.0)
        assert r.method is AmplitudeMethod.QUADRATURE

    def test_constant_phase_factors_out_of_modulus(self):
        obs, state = fixtures()
        unit = SMatrixModel.unit()
        shifted = SMatrixModel({CH: PhaseShift(0.6)})
        for t in (0.0, 2.0, 9.0):
            a_unit = transition_amplitude(obs, state, unit, t)
            a_shift = transition_amplitude(obs, state, shifted, t)
            assert abs(a_shift.p - a_unit.p) <= 1e-10

    def test_channel_additivity(self):
        spec2 = LorentzianSpec(2.0, 1.0, {Channel(0, 0): 1.0, Channel(1, 0): 1.0})
        state2 = make_lorentzian_state(spec2)
        obs2 = make_lorentzian_observable(spec2)
        s = SMatrixModel({Channel(1, 0): ResonancePole(2.0, 0.5)})
        t = 3.0
        total = transition_amplitude(obs2, state2, s, t)
        parts = 0j
        for ch in (Channel(0, 0), Channel(1, 0)):
            sub_state = make_lorentzian_state(spec2)
            sub_obs = make_lorentzian_observable(spec2)
            one_state = type(sub_state)(
                sub_state.kind, {ch: sub_state.channels[ch]}, validate=False
            )
            one_obs = type(sub_obs)(sub_obs.kind, {ch: sub_obs.channels[ch]}, validate=False)
            parts += transition_amplitude(one_obs, one_state, s, t).a
        assert abs(total.a - parts) < 1e-12


class TestEvolvedPhase:
    """Evolved wave functions carry their phase once, on every route."""

    @pytest.mark.parametrize(
        "case, method",
        [
            ("resonance_pole", "pole_residue"),
            ("resonance_pole", "quadrature"),
            ("resonance_pole", "auto"),
            ("callable_phase", "quadrature"),
            ("callable_phase", "auto"),
            ("sampled_phase", "quadrature"),
            ("sampled_phase", "auto"),
        ],
    )
    def test_matches_pole_route(self, case, method):
        obs, state = fixtures(2.0, 5.0)
        s_entry, rational = S_PAIRS[case]()
        s, s_ref = SMatrixModel({CH: s_entry}), SMatrixModel({CH: rational})
        tau, t = 3.0, 2.0
        ref = transition_amplitude(obs, state, s_ref, tau + t, method="pole_residue")
        results = [
            transition_amplitude(obs, evolve_state(state, tau), s, t, method=method),
            transition_amplitude(evolve_observable(obs, tau), state, s, t, method=method),
            transition_probability(obs, state, s, [tau + t], method=method)[0],
        ]
        for r in results:
            assert abs(r.a - ref.a) <= r.error_estimate + ref.error_estimate + 1e-7 * abs(ref.a)


class TestEvolvedSampledChannels:
    """Evolving a sampled channel shifts its phase time and leaves the samples alone."""

    @pytest.mark.parametrize("kind", ["observable", "state"])
    @pytest.mark.parametrize("tau", [0.3, 3.0])
    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_matches_unevolved_pole_route(self, kind, tau, t):
        obs, state = fixtures(2.0, 5.0)
        if kind == "observable":
            pair = evolve_observable(sampled_on_quadrature_grid(obs), tau), state
        else:
            pair = obs, evolve_state(sampled_on_quadrature_grid(state), tau)
        r = transition_amplitude(*pair, SMatrixModel.unit(), t)
        ref = transition_amplitude(obs, state, SMatrixModel.unit(), tau + t, method="pole_residue")
        assert r.method is AmplitudeMethod.QUADRATURE
        assert abs(r.a - ref.a) <= r.error_estimate + ref.error_estimate


class TestTransitionProbability:
    def test_picture_equivalence(self):
        obs, state = fixtures()
        t_grid = np.linspace(0.0, 20.0, 41)
        results = transition_probability(obs, state, SMatrixModel.unit(), t_grid)
        # the error estimate carries |a_S - a_H|; equality must be tight
        from hardylab import evolve_observable, evolve_state

        for r in results:
            a_s = transition_amplitude(obs, evolve_state(state, r.t), SMatrixModel.unit(), 0.0)
            a_h = transition_amplitude(evolve_observable(obs, r.t), state, SMatrixModel.unit(), 0.0)
            assert abs(a_s.p - a_h.p) <= 1e-8

    @pytest.mark.parametrize("case", ["resonance_pole", "callable_phase"])
    def test_analytic_pair_is_one_amplitude_per_point(self, case):
        obs, state = fixtures(2.0, 5.0)
        s = SMatrixModel({CH: S_PAIRS[case]()[0]})
        t_grid = [0.0, 0.5, 3.0, 12.0]
        results = transition_probability(obs, state, s, t_grid)
        assert results == [transition_amplitude(obs, state, s, t) for t in t_grid]

    def test_sampled_pair_keeps_picture_check(self):
        obs, state = fixtures(2.0, 5.0)
        sampled = sampled_on_quadrature_grid(obs)
        t_grid = [0.0, 1.0, 5.0]
        reference = transition_probability(obs, state, SMatrixModel.unit(), t_grid)
        results = transition_probability(sampled, state, SMatrixModel.unit(), t_grid)
        for r, ref in zip(results, reference):
            assert abs(r.a - ref.a) <= r.error_estimate + ref.error_estimate

    def test_cauchy_schwarz_bound(self):
        obs, state = fixtures()
        t_grid = np.linspace(0.0, 20.0, 41)
        for r in transition_probability(obs, state, SMatrixModel.unit(), t_grid):
            assert 0.0 <= r.p <= 1.0 + r.error_estimate

    def test_orthogonal_at_t0(self):
        state = make_lorentzian_state(LorentzianSpec(2.0, 1.0, {Channel(0, 0): 1.0}))
        obs = make_lorentzian_observable(LorentzianSpec(2.0, 1.0, {Channel(1, 1): 1.0}))
        results = transition_probability(obs, state, SMatrixModel.unit(), [0.0])
        assert results[0].p == 0.0

    def test_grid_must_be_nondecreasing_nonnegative(self):
        obs, state = fixtures()
        with pytest.raises(NegativeTime):
            transition_probability(obs, state, SMatrixModel.unit(), [-1.0, 0.0])
        with pytest.raises(ValueError):
            transition_probability(obs, state, SMatrixModel.unit(), [2.0, 1.0])

    @pytest.mark.parametrize("t_grid", [[0.0, np.nan], [np.inf], [0.0, 1.0, np.inf]])
    def test_grid_must_be_finite(self, t_grid):
        obs, state = fixtures()
        with pytest.raises(ValueError, match="finite"):
            transition_probability(obs, state, SMatrixModel.unit(), t_grid)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_amplitude_rejects_non_finite_time(self, t):
        obs, state = fixtures()
        with pytest.raises(ValueError, match="finite"):
            transition_amplitude(obs, state, SMatrixModel.unit(), t)

    @pytest.mark.parametrize("method, builder", [("pole_residue", "pole_sum_product"), ("quadrature", "default_energy_grid")])
    def test_each_channel_is_prepared_once(self, monkeypatch, method, builder):
        import hardylab.transition as tr

        spec = LorentzianSpec(2.0, 1.0, {Channel(0, 0): 1.0, Channel(1, 0): 1.0})
        s = SMatrixModel({Channel(1, 0): ResonancePole(2.0, 0.5)})
        calls = []
        build = getattr(tr, builder)
        monkeypatch.setattr(tr, builder, lambda *args: calls.append(args) or build(*args))
        results = transition_probability(
            make_lorentzian_observable(spec), make_lorentzian_state(spec), s, [0.0, 0.5, 3.0, 12.0], method=method
        )
        assert len(results) == 4
        assert len(calls) == 2  # one per shared channel, not one per channel and t


class TestDecayRate:
    def test_resonance_rate_recovered(self):
        obs, state = fixtures(2.0, 5.0)
        s = SMatrixModel({CH: ResonancePole(2.0, 0.2)})
        t_grid = np.arange(0.0, 40.0001, 0.1)
        results = transition_probability(obs, state, s, t_grid)
        fit = fit_exponential_rate(results, (5.0, 30.0))
        assert abs(fit.rate - 0.2) <= 0.05 * 0.2

    def test_fit_needs_enough_points(self):
        obs, state = fixtures()
        results = transition_probability(obs, state, SMatrixModel.unit(), [0.0, 1.0])
        with pytest.raises(ValueError):
            fit_exponential_rate(results, (10.0, 20.0))


class TestResultSerialization:
    def test_csv_and_json(self, tmp_path):
        obs, state = fixtures()
        results = transition_probability(
            obs, state, SMatrixModel.unit(), np.linspace(0, 2, 5)
        )
        path = tmp_path / "amp.csv"
        amplitude_results_to_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re_a,im_a,p,err"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert float(row[0]) == results[0].t
        assert float(row[3]) == results[0].p
        blob = json.loads(amplitude_results_to_json(results))
        assert blob[0]["method"] in ("pole_residue", "quadrature")
        assert blob[0]["p"] == results[0].p
        back = amplitude_results_from_csv(path)
        for orig, rt in zip(results, back):
            assert rt.t == orig.t
            assert rt.a == orig.a
            assert rt.p == orig.p
            assert rt.error_estimate == orig.error_estimate
