import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ambifilter import filtering, oracles
from ambifilter.errors import (DataError, DegenerateCloudError,
                               InvalidArgumentError, ShapeError)
from ambifilter.filtering import (_reduce_and_resample, innovation_path,
                                  run_filter, run_filter_bank, systematic_indices)
from ambifilter.model import ModelSpec, build_time_grid, simulate_bundle
from ambifilter.oracles import (FiniteSignalSpec, LinearGaussianSpec, kalman_bucy,
                                particle_filter_on_surrogate)
from ambifilter.features import RegressionBasis
from ambifilter.policies import constant_policy, sign_of_regression_policy, zero_policy
from ambifilter.presets import make_coef

from conftest import golden_noise, traced_peak

CONST0 = make_coef("constant", 0.0)
DY3 = np.array([[0.1, -0.2, 0.05]])
# no identity parameter anywhere: a sine drift, a state-dependent sigma, and
# tanh sensor and target that differ
CURVED = ModelSpec(b=make_coef("sine", 0.3, 2.0, 0.5, -0.1),
                   sigma=make_coef("sine", 0.1, 1.0, 0.0, 0.5),
                   h=make_coef("tanh", 1.5, 0.7, -0.2, 0.3),
                   f=make_coef("tanh", 2.0, -1.0, 0.25, -0.5), x0=0.3, T=1.0, k=0.25)
FIELDS = ("u", "pi_h", "ess", "flags", "log_mass")


def model_of(b, sigma, h, f, x0=0.0, T=1.0, k=0.0):
    return ModelSpec(b=b, sigma=sigma, h=h, f=f, x0=x0, T=T, k=k)


def bank_digest(r) -> str:
    h = hashlib.sha256()
    for a in (r.u, r.pi_h, r.ess, r.flags, r.log_mass):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sign_rule(steps, dt):
    """A sign rule with M over a grid of `steps` steps, whose sign varies
    with X and M."""
    tables = (np.arange(6.0 * (steps + 1)).reshape(steps + 1, 6) % 5 - 2) / 4
    tables[:, 0] += 0.125
    return sign_of_regression_policy(tables, RegressionBasis("poly_xm", 2), 0.25, dt)


def bank_case(case, tanh_model, steps, dt):
    """(model, policy) of a time table, a sign rule with M, or a sign rule
    on CURVED."""
    return {"time table": (tanh_model, constant_policy(0.25)),
            "sign rule": (tanh_model, sign_rule(steps, dt)),
            "general": (CURVED, sign_rule(steps, dt))}[case]


def reduce_cloud(pos, logw, ess_frac):
    """One cloud through the bank's estimate/resample pass, with f(x) = x.
    Returns (u, logmass, flag, positions, log-weights) after the pass."""
    pos = np.array(pos, dtype=float).reshape(1, -1)
    logw = np.array(logw, dtype=float).reshape(1, -1)
    mx = logw.max(axis=1)
    w = np.exp(logw - mx[:, None])
    u, _, _, logmass, flags = _reduce_and_resample(
        pos, logw, np.zeros_like(pos), w, np.zeros_like(pos), pos.copy(), mx,
        np.array([0.5]), ess_frac, np.empty_like(pos))
    return u[0], logmass[0], flags[0], pos[0], logw[0]


class TestInitCloud:
    def test_point_mass(self, tanh_model):
        bank = run_filter_bank(tanh_model, zero_policy(), np.zeros((2, 1)),
                               0.02, 4, seed=1)
        np.testing.assert_array_equal(bank.u[:, 0], tanh_model.f.value(0.8))
        np.testing.assert_array_equal(bank.pi_h[:, 0], tanh_model.h.value(0.8))
        np.testing.assert_array_equal(bank.ess[:, 0], 4.0)
        assert np.all(bank.log_mass[:, 0] == 0.0)

    def test_initial_estimate_is_fx0(self, tanh_model, grid50):
        fp = run_filter(tanh_model, zero_policy(), np.zeros(grid50.n_steps + 1),
                        16, seed=1)
        assert fp.u[0] == pytest.approx(float(tanh_model.f.value(0.8)), rel=1e-14)

    def test_too_few_particles(self, tanh_model, grid50):
        # checked before a cloud is allocated, where np.full would raise a
        # bare ValueError for a negative count; the chain filter runs the
        # same loop
        states = np.array([0.8, -0.3])
        spec = FiniteSignalSpec(states, np.zeros((2, 2)), tanh_model.h.value(states),
                                tanh_model.f.value(states))
        for n in (1, 0, -1):
            with pytest.raises(InvalidArgumentError, match="n_particles"):
                run_filter_bank(tanh_model, zero_policy(), np.zeros((1, 1)), 0.02,
                                n, seed=1)
            with pytest.raises(InvalidArgumentError, match="n_particles"):
                particle_filter_on_surrogate(spec, np.zeros(grid50.n_steps + 1),
                                             grid50, n, seed=1, x0=0.8)

    @pytest.mark.parametrize("n_particles, dt, name", [
        (2.5, 0.02, "n_particles"), (np.float64(8.0), 0.02, "n_particles"),
        ("8", 0.02, "n_particles"), (8, float("nan"), "dt"), (8, -1.0, "dt"),
        (8, 0.0, "dt"), (8, float("inf"), "dt"),
    ])
    def test_bad_scalars(self, tanh_model, n_particles, dt, name):
        # checked before a cloud is allocated: 2.5 raised a raw TypeError and
        # a NaN dt a raw ValueError; dt = -1 warned in sqrt and then reported
        # a degenerate cloud, and dt = 0 ran silently
        with pytest.raises(InvalidArgumentError, match=name):
            run_filter_bank(tanh_model, zero_policy(), DY3, dt, n_particles, seed=1)


class TestStepCloud:
    def test_zero_sensor_keeps_weights(self, tanh_model):
        m = model_of(tanh_model.b, tanh_model.sigma, CONST0, tanh_model.f)
        bank = run_filter_bank(m, zero_policy(), np.array([[0.3]]), 0.02, 64,
                               seed=2)
        assert bank.ess[0, 1] == 64.0 and bank.flags[0, 1] == 0
        assert bank.log_mass[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_frozen_signal_moves_weights_only(self, tanh_model):
        m = model_of(CONST0, make_coef("constant", 0.0), tanh_model.h,
                     tanh_model.f, x0=0.5)
        bank = run_filter_bank(m, zero_policy(), np.array([[0.2]]), 0.02, 32,
                               seed=3)
        assert bank.u[0, 1] == pytest.approx(float(m.f.value(0.5)), rel=1e-14)
        assert bank.log_mass[0, 1] != 0.0

    def test_nonfinite_observation(self, tanh_model):
        with pytest.raises(DataError):
            run_filter_bank(tanh_model, zero_policy(), np.array([[np.nan]]),
                            0.02, 8, seed=4)

    def test_manual_loop_matches_kalman(self, linear_model):
        grid = build_time_grid(1.0, 100)
        bundle = simulate_bundle(linear_model, zero_policy(), grid, 1, 15,
                                 measure="P")
        Y = bundle.Y[0]
        fp = run_filter(linear_model, zero_policy(), Y, 2000, seed=16)
        kb, _ = kalman_bucy(LinearGaussianSpec(0.0, 1.0, 1.0, 0.0, 1.0), Y, grid)
        assert np.mean(np.abs(fp.u - kb)) <= 0.05


class TestEstimates:
    def test_unnormalized_unit_function(self, tanh_model):
        # frozen particles at x0: every weight gains the same increments,
        # so rho_t(1) = exp(sum of h dY - h^2 dt / 2)
        m = model_of(CONST0, make_coef("constant", 0.0), tanh_model.h,
                     tanh_model.f, x0=0.8)
        bank = run_filter_bank(m, zero_policy(), DY3, 0.02, 256, seed=5)
        h = float(m.h.value(0.8))
        want = np.cumsum(h * DY3[0] - 0.5 * h * h * 0.02)
        np.testing.assert_allclose(bank.log_mass[0, 1:], want, rtol=1e-12)

    def test_normalized_constant(self, tanh_model):
        m = model_of(tanh_model.b, tanh_model.sigma, tanh_model.h,
                     make_coef("constant", 2.2), x0=0.8)
        bank = run_filter_bank(m, zero_policy(), DY3, 0.02, 256, seed=5)
        np.testing.assert_allclose(bank.u, 2.2, rtol=1e-14)

    def test_normalized_arithmetic_mean(self):
        u, *_ = reduce_cloud([0.0, 2.0], [np.log(0.5)] * 2, ess_frac=0.5)
        assert u == pytest.approx(1.0)

    def test_kallianpur_striebel_consistency(self):
        rng = np.random.default_rng(5)
        pos, logw = rng.normal(size=256), rng.normal(size=256) - 3.0
        u, logmass, *_ = reduce_cloud(pos, logw, ess_frac=0.0)
        rho_f = (np.exp(logw) * pos).sum()
        rho_1 = np.exp(logw).sum()
        assert np.exp(logmass) == pytest.approx(rho_1, rel=1e-12)
        assert u == pytest.approx(rho_f / rho_1, rel=1e-12)

    def test_degenerate_cloud_error(self, tanh_model):
        # h^2 overflows, so every log-weight becomes -inf in one step
        m = model_of(tanh_model.b, tanh_model.sigma,
                     make_coef("constant", 1e200), tanh_model.f)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateCloudError):
                run_filter_bank(m, zero_policy(), np.array([[0.1]]), 0.02, 4,
                                seed=1)


class TestResampling:
    def test_equal_weights_identity(self):
        np.testing.assert_array_equal(systematic_indices(np.full(32, 1 / 32), 0.37),
                                      np.arange(32))

    def test_one_hot_collapses(self):
        n = 16
        logw = np.full(n, -1e9)
        logw[3] = 0.1
        pos = np.linspace(-1, 1, n)
        _, logmass, flag, pos_r, logw_r = reduce_cloud(pos, logw, ess_frac=0.5)
        assert flag == 1
        np.testing.assert_array_equal(pos_r, np.full(n, pos[3]))
        np.testing.assert_allclose(np.exp(logw_r), np.exp(0.1) / n, rtol=1e-12)
        assert logmass == 0.1

    @given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=24))
    def test_mass_preserved(self, raw):
        n = len(raw)
        logw = np.asarray(raw)
        before = np.exp(logw).sum()
        _, _, _, _, logw_r = reduce_cloud(np.linspace(0, 1, n), logw,
                                          ess_frac=1.0)  # force resampling
        after = np.exp(logw_r).sum()
        assert after == pytest.approx(before, rel=1e-12)
        w = np.exp(logw_r - logw_r.max())
        assert w.sum() ** 2 / (w * w).sum() == pytest.approx(n)

    def test_resamples_below_threshold(self, tanh_model):
        # a sharp sensor (h = tanh(10 x)) drops the ESS below the threshold on
        # some steps and not on others, so both branches of the rule run
        m = model_of(tanh_model.b, make_coef("constant", 1.0),
                     make_coef("tanh", 10.0), tanh_model.f, x0=tanh_model.x0)
        g = build_time_grid(1.0, 50)
        bundle = simulate_bundle(m, zero_policy(), g, 200, 3, measure="P")
        n = 64
        bank = run_filter_bank(m, zero_policy(), np.diff(bundle.Y, axis=1), g.dt,
                               n, seed=3)
        resampled = bank.flags[:, 1:] == 1
        assert 0 < resampled.mean() < 1
        np.testing.assert_array_equal(resampled,
                                      bank.ess[:, 1:] < filtering.ESS_THRESHOLD * n)


class TestRunFilter:
    def test_constant_target(self, grid50):
        m = model_of(make_coef("tanh", 0.2), make_coef("constant", 0.5),
                     make_coef("tanh", 1.0), make_coef("constant", 3.0))
        bundle = simulate_bundle(m, zero_policy(), grid50, 1, 17, measure="P")
        fp = run_filter(m, zero_policy(), bundle.Y[0], 64, seed=18)
        np.testing.assert_allclose(fp.u, 3.0, rtol=1e-12)

    def test_bounded_by_f_sup(self, tanh_model, grid50):
        bundle = simulate_bundle(tanh_model, zero_policy(), grid50, 3, 19,
                                 measure="P")
        for i in range(3):
            fp = run_filter(tanh_model, zero_policy(), bundle.Y[i], 128, seed=20 + i)
            assert np.all(np.abs(fp.u) <= tanh_model.f_sup)

    def test_causality_under_truncation(self, tanh_model, grid50):
        bundle = simulate_bundle(tanh_model, zero_policy(), grid50, 1, 21,
                                 measure="P")
        Y = bundle.Y[0]
        full = run_filter(tanh_model, zero_policy(), Y, 64, seed=22)
        cut = 30
        Y_mod = Y.copy()
        Y_mod[cut + 1:] += np.linspace(1.0, 5.0, grid50.n_steps - cut)
        mod = run_filter(tanh_model, zero_policy(), Y_mod, 64, seed=22)
        np.testing.assert_array_equal(full.u[:cut + 1], mod.u[:cut + 1])
        assert not np.array_equal(full.u[cut + 1:], mod.u[cut + 1:])

    def test_kalman_bucy_match(self, linear_model, grid50):
        grid = build_time_grid(1.0, 100)
        bundle = simulate_bundle(linear_model, zero_policy(), grid, 1, 23,
                                 measure="P")
        fp = run_filter(linear_model, zero_policy(), bundle.Y[0], 2000, seed=24)
        kb, _ = kalman_bucy(LinearGaussianSpec(0.0, 1.0, 1.0, 0.0, 1.0),
                            bundle.Y[0], grid)
        assert np.sqrt(np.mean((fp.u - kb) ** 2)) <= 0.05

    def test_bank_matches_single(self, tanh_model, grid50):
        bundle = simulate_bundle(tanh_model, zero_policy(), grid50, 1, 25,
                                 measure="P")
        bank = run_filter_bank(tanh_model, zero_policy(),
                               np.diff(bundle.Y, axis=1), grid50.dt, 64,
                               seed=26, salt=0)
        single = run_filter(tanh_model, zero_policy(), bundle.Y[0], 64, seed=26)
        np.testing.assert_array_equal(bank.u[0], single.u)

    def test_golden_digest(self, tanh_model, monkeypatch):
        # every step resamples (threshold 1), so both per-step streams reach
        # the output; any change to them changes these bytes
        monkeypatch.setattr(filtering, "ESS_THRESHOLD", 1.0)
        g = build_time_grid(1.0, 6)
        dY = golden_noise()[1]
        r = run_filter_bank(tanh_model, constant_policy(0.25), dY, g.dt, 16,
                            seed=2024, salt=3)
        assert r.flags[:, 1:].all()
        assert bank_digest(r) == (
            "64897ead9b674d2139df47d7720e571942f3814a04c65642d094571609de7766")

    def test_golden_sign_rule_bank(self, tanh_model, monkeypatch):
        # a sign rule reads M = exp(logm), and every step resamples logm
        # with the positions, so both reach these bytes
        monkeypatch.setattr(filtering, "ESS_THRESHOLD", 1.0)
        g = build_time_grid(1.0, 6)
        r = run_filter_bank(tanh_model, sign_rule(6, g.dt), golden_noise()[1], g.dt, 16,
                            seed=2024, salt=3)
        assert r.flags[:, 1:].all()
        assert bank_digest(r) == (
            "9ac55e708f756415aac7cda5b4861bd8f96472c95e27cd750acc2c7c623973e7")

    def test_golden_curved_coefficients(self, monkeypatch):
        # no identity parameter anywhere: tanh sensor and target that differ,
        # a sine drift and a state-dependent sigma, times a constant theta and
        # times a sign rule's theta(X, M), array by array
        monkeypatch.setattr(filtering, "ESS_THRESHOLD", 1.0)
        g = build_time_grid(1.0, 6)
        for pol, want in (
                (constant_policy(0.25),
                 "b9d1d34bae434d1f9079cbd1effb865780a48879ed1d1252287d596b657affc9"),
                (sign_rule(6, g.dt),
                 "d542d280d69bfb4a18d8b4bb423c5bc478416381bd63692798ef7f88088c3eb8")):
            r = run_filter_bank(CURVED, pol, golden_noise()[1], g.dt, 16, seed=2024, salt=3)
            assert r.flags[:, 1:].all()
            assert bank_digest(r) == want

    @pytest.mark.parametrize("case, bound", [("time table", 7.5), ("sign rule", 8.5),
                                             ("general", 8.5)])
    def test_bank_allocates_no_cloud_per_step(self, tanh_model, case, bound):
        # Traced peak of a 200 x 100 x 10 bank in cloud arrays (200 x 100
        # doubles). It holds 6 clouds (7 with log M), the five 200 x 11 output
        # tables and numpy's fixed ufunc buffer: 6.94, 7.93 and 7.92 clouds;
        # with per-step temporaries it was 8.63, 11.61 and 14.62. "general"
        # is a state-dependent sigma times a sign rule's theta, with f != h.
        m, n, steps = 200, 100, 10
        dt = 1.0 / steps
        dY = np.random.default_rng(5).standard_normal((m, steps)) * np.sqrt(dt)
        tables = (np.arange(6.0 * (steps + 1)).reshape(steps + 1, 6) % 5 - 2) / 4
        rule = sign_of_regression_policy(tables, RegressionBasis("poly_xm", 2), 0.25, dt)
        model, pol = {"time table": (tanh_model, constant_policy(0.25)),
                      "sign rule": (tanh_model, rule), "general": (CURVED, rule)}[case]
        peak = traced_peak(lambda: run_filter_bank(model, pol, dY, dt, n, seed=1))
        assert peak / (m * n * 8) <= bound

    @pytest.mark.parametrize("seed", [2.9, -1, float("nan")])
    def test_bad_seed(self, tanh_model, seed):
        with pytest.raises(InvalidArgumentError, match="seed"):
            run_filter_bank(tanh_model, zero_policy(), DY3, 0.1, 8, seed=seed)

    def test_shape_validation(self, tanh_model):
        with pytest.raises(ShapeError):
            run_filter(tanh_model, zero_policy(), np.array([0.0]), 16, seed=1)


class TestRowBlocks:
    def test_block_rows(self):
        budget = filtering.CLOUD_BLOCK_ELEMENTS
        assert filtering._block_rows(2000, 10) == 2000     # one block
        assert filtering._block_rows(1000, 100) == 250     # four even blocks
        assert filtering._block_rows(301, 128) == 151      # 151 + 150 rows
        assert filtering._block_rows(3, budget + 1) == 1   # a row over budget
        assert filtering._block_rows(0, 16) == 1           # no paths, no blocks

    @pytest.mark.parametrize("case", ["time table", "sign rule", "general"])
    def test_outputs_do_not_depend_on_blocks(self, tanh_model, case, monkeypatch):
        # every step resamples, so both step streams reach the outputs; the
        # budgets give one block, blocks of 10, 10, 10 and 7 rows, and one
        # row per block (a budget below one row)
        monkeypatch.setattr(filtering, "ESS_THRESHOLD", 1.0)
        m, n, steps = 37, 16, 6
        dt = 1.0 / steps
        model, pol = bank_case(case, tanh_model, steps, dt)
        dY = np.random.default_rng(3).standard_normal((m, steps)) * np.sqrt(dt)
        banks = []
        for budget, rows in ((m * n, m), (160, 10), (n - 1, 1)):
            monkeypatch.setattr(filtering, "CLOUD_BLOCK_ELEMENTS", budget)
            assert filtering._block_rows(m, n) == rows
            banks.append(run_filter_bank(model, pol, dY, dt, n, seed=9, salt=1))
        assert banks[0].flags[:, 1:].all()
        for bank in banks[1:]:
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(bank, name),
                                              getattr(banks[0], name), err_msg=name)

    def test_golden_multi_block_bank(self, monkeypatch):
        # two blocks of 151 and 150 rows; the digest was taken from a bank
        # filtered as one block
        monkeypatch.setattr(filtering, "ESS_THRESHOLD", 1.0)
        m, n, steps = 301, 128, 6
        dt = 1.0 / steps
        dY = np.random.default_rng(11).standard_normal((m, steps)) * np.sqrt(dt)
        r = run_filter_bank(CURVED, sign_rule(steps, dt), dY, dt, n, seed=2024, salt=3)
        assert r.flags[:, 1:].all()
        assert bank_digest(r) == (
            "aae7ab529f34ab63b895396bef6ea88409cd5deab141fb76c965295c8c2b4a06")

    @pytest.mark.parametrize("m", [2048, 4096])
    @pytest.mark.parametrize("case", ["time table", "sign rule", "general"])
    def test_clouds_do_not_grow_with_the_bank(self, tanh_model, case, m):
        # m x 128 is 8 and 16 block budgets. The traced peak over the five
        # output tables is 6.3 block clouds (7.4 with log M); when the bank
        # held whole-bank clouds it was 48-57 at m = 2048
        n, steps = 128, 4
        dt = 1.0 / steps
        model, pol = bank_case(case, tanh_model, steps, dt)
        dY = np.random.default_rng(5).standard_normal((m, steps)) * np.sqrt(dt)
        tables = m * (steps + 1) * (4 * 8 + 1)
        block = filtering._block_rows(m, n) * n * 8
        peak = traced_peak(lambda: run_filter_bank(model, pol, dY, dt, n, seed=1))
        assert peak <= tables + 8 * block

    def test_empty_banks(self, tanh_model):
        rule = sign_rule(4, 0.25)
        no_paths = run_filter_bank(tanh_model, rule, np.zeros((0, 4)), 0.25, 8, seed=1)
        no_steps = run_filter_bank(tanh_model, rule, np.zeros((3, 0)), 0.25, 8, seed=1)
        for name in FIELDS:
            assert getattr(no_paths, name).shape == (0, 5), name
            assert getattr(no_steps, name).shape == (3, 1), name
        np.testing.assert_array_equal(no_steps.u, tanh_model.f.value(0.8))
        np.testing.assert_array_equal(no_steps.ess, 8.0)
        assert not no_steps.flags.any() and not no_steps.log_mass.any()

    def test_chain_state_stays_integer(self, tanh_model, grid50, monkeypatch):
        # the chain filter's particles are state indices, which index its
        # h and f tables
        dtypes = []
        run = oracles.run_clouds

        def spy(mutate, *args, **kwargs):
            def watched(j, stream, pos, *rest):
                dtypes.append(pos.dtype)
                return mutate(j, stream, pos, *rest)
            return run(watched, *args, **kwargs)

        monkeypatch.setattr(oracles, "run_clouds", spy)
        states = np.array([0.8, -0.3])
        spec = FiniteSignalSpec(states, np.array([[-1.0, 1.0], [1.0, -1.0]]),
                                tanh_model.h.value(states), tanh_model.f.value(states))
        particle_filter_on_surrogate(spec, np.zeros(grid50.n_steps + 1), grid50, 64,
                                     seed=1, x0=0.8)
        assert len(dtypes) == grid50.n_steps
        assert all(d.kind == "i" for d in dtypes)


class TestFiniteFilter:
    def test_frozen_chain_matches_frozen_bank(self, tanh_model, grid50):
        # neither signal moves (a zero rate matrix: the transition matrix is
        # the identity), so both filters weight the same point mass through
        # the same loop
        m = model_of(CONST0, CONST0, tanh_model.h, tanh_model.f, x0=0.8)
        states = np.array([0.8, -0.3])
        spec = FiniteSignalSpec(states, np.zeros((2, 2)), m.h.value(states),
                                m.f.value(states))
        bundle = simulate_bundle(tanh_model, zero_policy(), grid50, 1, 27,
                                 measure="P")
        Y = bundle.Y[0]
        chain = particle_filter_on_surrogate(spec, Y, grid50, 64, seed=28, x0=0.8)
        bank = run_filter_bank(m, zero_policy(), np.diff(Y).reshape(1, -1),
                               grid50.dt, 64, seed=28)
        for name in ("u", "pi_h", "ess", "log_mass"):
            np.testing.assert_array_equal(getattr(chain, name),
                                          getattr(bank, name)[0], err_msg=name)


class TestInnovation:
    def test_zero_sensor(self, grid50):
        Y = np.cumsum(np.r_[0.0, np.full(grid50.n_steps, 0.1)])
        nu = innovation_path(Y, np.zeros(grid50.n_steps + 1), grid50)
        np.testing.assert_allclose(nu, Y, rtol=1e-14)

    def test_constant_compensator(self, grid50):
        c = 0.6
        Y = np.linspace(0.0, 2.0, grid50.n_steps + 1)
        nu = innovation_path(Y, np.full(grid50.n_steps + 1, c), grid50)
        np.testing.assert_allclose(nu, Y - c * grid50.times, atol=1e-12)
        assert nu[0] == 0.0
