import numpy as np
import pytest

from ambifilter.errors import InvalidArgumentError
from ambifilter import filtering, oracles
from ambifilter.minimax import ConstantRule, evaluate_cost
from ambifilter.model import (ModelSpec, build_time_grid, rekey, substream,
                              substream_keys)
from ambifilter.oracles import (FiniteSignalSpec, LinearGaussianSpec,
                                finite_signal_estimates, finite_signal_filter,
                                grid_sup_cost, kalman_bucy,
                                make_finite_surrogate,
                                particle_filter_on_surrogate, riccati_path,
                                sign_pattern_family, simulate_finite_signal)
from ambifilter.policies import constant_policy, zero_policy
from ambifilter.presets import make_coef


class TestKalmanBucy:
    @pytest.mark.parametrize("field", ["a", "sigma", "c", "x0", "T"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spec_rejected(self, field, bad):
        # kalman_bucy returned NaN means from such a spec with no error
        args = {"a": 0.0, "sigma": 1.0, "c": 1.0, "x0": 0.0, "T": 1.0, field: bad}
        with pytest.raises(InvalidArgumentError, match="finite"):
            LinearGaussianSpec(**args)

    def test_no_dynamics_no_information(self):
        spec = LinearGaussianSpec(a=0.0, sigma=0.0, c=0.0, x0=1.5, T=1.0)
        grid = build_time_grid(1.0, 40)
        Y = np.zeros(41)
        mean, R = kalman_bucy(spec, Y, grid)
        np.testing.assert_allclose(mean, 1.5, rtol=1e-12)
        np.testing.assert_allclose(R, 0.0, atol=1e-15)

    def test_riccati_tanh_closed_form(self):
        spec = LinearGaussianSpec(a=0.0, sigma=1.0, c=1.0, x0=0.0, T=1.0)
        grid = build_time_grid(1.0, 100)
        R = riccati_path(spec, grid, R0=0.0)
        assert np.max(np.abs(R - np.tanh(grid.times))) < 1e-6

    def test_no_observation_follows_drift(self):
        spec = LinearGaussianSpec(a=0.7, sigma=0.4, c=0.0, x0=2.0, T=1.0)
        grid = build_time_grid(1.0, 50)
        Y = np.cumsum(np.r_[0.0, np.full(50, 0.3)])  # ignored when c = 0
        mean, _ = kalman_bucy(spec, Y, grid)
        np.testing.assert_allclose(mean, 2.0 * np.exp(0.7 * grid.times), rtol=1e-9)

    def test_one_row_bank_keeps_its_shape(self):
        # the mean comes back in the shape of Y, also for a bank of one path
        spec = LinearGaussianSpec(a=0.0, sigma=1.0, c=1.0, x0=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        Y = np.cumsum(np.r_[0.0, np.full(20, 0.05)])
        bank, _ = kalman_bucy(spec, Y[None, :], grid)
        path, _ = kalman_bucy(spec, Y, grid)
        assert bank.shape == (1, 21) and path.shape == (21,)
        np.testing.assert_array_equal(bank[0], path)

    def test_riccati_stays_nonnegative(self):
        spec = LinearGaussianSpec(a=-1.2, sigma=0.8, c=2.0, x0=0.0, T=2.0)
        grid = build_time_grid(2.0, 200)
        assert np.all(riccati_path(spec, grid, R0=0.5) >= 0.0)


class TestFiniteSignal:
    def _spec(self, h_zero=False):
        model = ModelSpec(b=make_coef("tanh", 0.2),
                          sigma=make_coef("constant", 0.5),
                          h=make_coef("constant", 0.0) if h_zero else make_coef("tanh", 1.0),
                          f=make_coef("tanh", 1.0), x0=0.8, T=1.0, k=0.0)
        return make_finite_surrogate(model, 5, -0.7, 2.3)

    def test_generator_invariants(self):
        spec = self._spec()
        Q = spec.rate_matrix
        assert np.max(np.abs(Q.sum(axis=1))) < 1e-9
        off = Q - np.diag(np.diag(Q))
        assert np.all(off >= 0)

    def test_constant_drift_and_target(self):
        # a constant preset's value is a number; the surrogate gives every
        # state its drift, sensor and target value
        model = ModelSpec(b=make_coef("constant", 0.3), sigma=make_coef("constant", 0.5),
                          h=make_coef("tanh", 1.0), f=make_coef("constant", 1.4),
                          x0=0.8, T=1.0, k=0.0)
        spec = make_finite_surrogate(model, 5, -0.7, 2.3)
        assert spec.h_values.shape == spec.f_values.shape == (5,)
        np.testing.assert_array_equal(spec.f_values, 1.4)
        Q, dx = spec.rate_matrix, 0.75
        # central rates: the drift is the up-minus-down rate times dx
        np.testing.assert_allclose((Q[1:4, 2:5].diagonal() - Q[1:4, 0:3].diagonal()) * dx,
                                   0.3, rtol=1e-12)
        grid = build_time_grid(1.0, 20)
        _, Y = simulate_finite_signal(spec, grid, seed=5, x0=0.8)
        u = finite_signal_estimates(spec, finite_signal_filter(spec, Y, grid, x0=0.8))
        np.testing.assert_allclose(u, 1.4, rtol=1e-12)

    def test_mass_conserved_with_zero_sensor(self):
        spec = self._spec(h_zero=True)
        grid = build_time_grid(1.0, 60)
        masses = finite_signal_filter(spec, np.zeros(61), grid, x0=0.8)
        assert np.max(np.abs(masses.sum(axis=1) - 1.0)) < 1e-9

    def test_frozen_chain_keeps_point_mass(self):
        states = np.linspace(-1, 1, 5)
        spec = FiniteSignalSpec(states=states, rate_matrix=np.zeros((5, 5)),
                                h_values=np.zeros(5), f_values=states)
        grid = build_time_grid(1.0, 10)
        masses = finite_signal_filter(spec, np.zeros(11), grid, x0=0.4)
        expect = np.zeros(5)
        expect[np.argmin(np.abs(states - 0.4))] = 1.0
        np.testing.assert_allclose(masses[-1], expect, atol=1e-12)

    def test_particle_filter_converges_to_recursion(self, monkeypatch):
        spec = self._spec()
        grid = build_time_grid(1.0, 100)
        _, Y = simulate_finite_signal(spec, grid, seed=101, x0=0.8)
        masses = finite_signal_filter(spec, Y, grid, x0=0.8)
        u_exact = finite_signal_estimates(spec, masses)
        rho1_exact = masses.sum(axis=1)
        # a threshold of 1.0 resamples at every step
        for ess_threshold in (0.5, 1.0):
            monkeypatch.setattr(filtering, "ESS_THRESHOLD", ess_threshold)
            fp = particle_filter_on_surrogate(spec, Y, grid, 5000, seed=102, x0=0.8)
            if ess_threshold == 1.0:
                assert fp.flags[1:].all()
            assert np.mean(np.abs(fp.u - u_exact)) <= 0.02
            # unnormalized masses agree too
            rel = np.abs(np.exp(fp.log_mass) - rho1_exact) / rho1_exact
            assert np.mean(rel) <= 0.02

    def test_chain_and_filter_draw_distinct_streams(self, monkeypatch):
        # the oracle-check path feeds one seed to both the chain and the filter
        # the chain draws one substream; the filter keys all its steps at once
        calls = {}
        for module, name in ((oracles, "substream"), (oracles, "substream_keys")):
            def spy(*args, _real=getattr(module, name), _name=name, **kw):
                calls.setdefault(_name, []).append((args, kw))
                return _real(*args, **kw)
            monkeypatch.setattr(module, name, spy)
        spec = self._spec()
        grid = build_time_grid(1.0, 10)
        _, Y = simulate_finite_signal(spec, grid, seed=777, x0=0.8)
        particle_filter_on_surrogate(spec, Y, grid, 50, seed=777, x0=0.8)
        (chain_args, chain_kw), = calls["substream"]
        (filter_args, filter_kw), = calls["substream_keys"]
        step1 = substream_keys(*filter_args, **filter_kw)[1]   # step j = 1
        assert not np.array_equal(
            substream(*chain_args, **chain_kw).random(8),
            rekey(np.random.Generator(np.random.Philox()), step1).random(8))

    def test_bad_rate_matrix_rejected(self):
        states = np.linspace(0, 1, 3)
        Q = np.array([[-1.0, 0.5, 0.5], [0.2, -0.1, -0.1], [0.0, 0.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            FiniteSignalSpec(states=states, rate_matrix=Q,
                             h_values=np.zeros(3), f_values=states)

    @pytest.mark.parametrize("field", ["states", "rate_matrix", "h_values", "f_values"])
    def test_non_finite_spec_rejected(self, field):
        # an all-NaN generator passed the sign and row-sum checks
        states = np.linspace(0, 1, 3)
        args = {"states": states, "rate_matrix": np.zeros((3, 3)),
                "h_values": np.zeros(3), "f_values": states}
        args[field] = np.full_like(args[field], np.nan)
        with pytest.raises(InvalidArgumentError, match="finite"):
            FiniteSignalSpec(**args)

    @pytest.mark.parametrize("x_lo, x_hi", [
        (0.8, 0.8), (2.3, -0.7), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
    def test_surrogate_needs_finite_ordered_range(self, x_lo, x_hi):
        # dx = 0 gave inf and NaN rates, an infinite end NaN states
        model = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                          h=make_coef("tanh", 1.0), f=make_coef("tanh", 1.0),
                          x0=0.8, T=1.0, k=0.0)
        with pytest.raises(InvalidArgumentError, match="x_lo < x_hi"):
            make_finite_surrogate(model, 5, x_lo, x_hi)


class TestGridSupCost:
    def test_singleton_equals_direct(self, tanh_model, grid50):
        rule = ConstantRule(0.0)
        rep = evaluate_cost(tanh_model, rule, zero_policy(), 300, 7, grid50)
        sup = grid_sup_cost(tanh_model, rule, [zero_policy()], 300, 7, grid50)
        assert sup.J_worst == rep.J

    def test_theta_free_integrand(self, grid50):
        # f constant: J = c^2 T for every adversary
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", 1.4),
                      x0=0.0, T=1.0, k=0.3)
        fam = [constant_policy(v, radius=0.3) for v in (-0.3, 0.0, 0.3)]
        sup = grid_sup_cost(m, ConstantRule(0.0), fam, 200, 7, grid50)
        for r in sup.reports:
            assert r.J == pytest.approx(1.4 ** 2, rel=1e-12)
        assert sup.J_worst == pytest.approx(1.4 ** 2, rel=1e-12)

    def test_superset_dominance(self, tanh_model, grid50):
        rule = ConstantRule(0.0)
        small = sign_pattern_family(0.25, 1, 1.0)
        large = sign_pattern_family(0.25, 2, 1.0)
        s1 = grid_sup_cost(tanh_model, rule, small, 250, 11, grid50)
        s2 = grid_sup_cost(tanh_model, rule, large + small, 250, 11, grid50)
        assert s2.J_worst >= s1.J_worst

    def test_family_sizes(self):
        assert len(sign_pattern_family(0.25, 3, 1.0)) == 27
        assert len(sign_pattern_family(0.0, 3, 1.0)) == 1
        # the first bucket varies slowest
        assert [p.payload["values"].tolist() for p in sign_pattern_family(0.5, 2, 1.0)] == [
            [a, b] for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5)]

    @pytest.mark.parametrize("k", [0.0, 0.25])
    @pytest.mark.parametrize("n_buckets", [0, -1])
    def test_no_buckets_rejected(self, k, n_buckets):
        # numpy's reshape raised a bare ValueError for these at k > 0
        with pytest.raises(InvalidArgumentError, match="n_buckets"):
            sign_pattern_family(k, n_buckets, 1.0)

    def test_empty_family_rejected(self, tanh_model, grid50):
        with pytest.raises(InvalidArgumentError):
            grid_sup_cost(tanh_model, ConstantRule(0.0), [], 100, 1, grid50)
