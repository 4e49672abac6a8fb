import dataclasses
import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from ambifilter import bsde, minimax, model, oracles
from ambifilter.errors import InvalidArgumentError, MissingFeatureError, ShapeError
from ambifilter.features import FrozenRegression, RegressionBasis, fit_ridge
from ambifilter.model import (ROLE_B, ROLE_W, ModelSpec, NoiseBundle,
                              build_time_grid, sample_noise, simulate_bundle,
                              substream, substream_keys)
from ambifilter.policies import (POLICY_KINDS, constant_policy,
                                 sign_of_regression_policy, time_table_policy,
                                 zero_policy)
from ambifilter.presets import make_coef

from conftest import golden_noise, mc_se


def model_of(b, sigma, h, f, x0=0.0, T=1.0, k=0.0):
    return ModelSpec(b=b, sigma=sigma, h=h, f=f, x0=x0, T=T, k=k)


CONST = make_coef("constant", 0.0)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def paths_on(model, noise, grid, measure="P", policy=None):
    """simulate_bundle driven by the given noise."""
    return simulate_bundle(model, policy or zero_policy(), grid, noise.n_paths,
                           noise.seed, measure=measure, noise=noise)


class TestTimeGrid:
    def test_quarters(self):
        g = build_time_grid(1.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        g = build_time_grid(1.0, 1)
        np.testing.assert_allclose(g.times, [0.0, 1.0])

    def test_dt(self):
        assert build_time_grid(2.0, 50).dt == pytest.approx(0.04)

    @pytest.mark.parametrize("T,n", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_invalid(self, T, n):
        with pytest.raises(InvalidArgumentError):
            build_time_grid(T, n)


class TestSampleNoise:
    def test_deterministic(self):
        g = build_time_grid(1.0, 20)
        a = sample_noise(g, 7, seed=3)
        b = sample_noise(g, 7, seed=3)
        assert np.array_equal(a.dW, b.dW) and np.array_equal(a.dB, b.dB)

    def test_per_path_keying(self):
        # a path's noise does not depend on how many paths are drawn with it
        g = build_time_grid(1.0, 10)
        full = sample_noise(g, 20, seed=3)
        part = sample_noise(g, 6, seed=3)
        np.testing.assert_array_equal(part.dW, full.dW[:6])
        np.testing.assert_array_equal(part.dB, full.dB[:6])

    def test_rows_are_substreams(self):
        g = build_time_grid(0.7, 9)
        nb = sample_noise(g, 4, seed=2**70 + 11)
        for i in range(4):
            for out, role in ((nb.dW, ROLE_W), (nb.dB, ROLE_B)):
                ref = np.random.Generator(np.random.Philox(seed_sequence(2**70 + 11, role, i)))
                row = ref.standard_normal(9) * np.sqrt(g.dt)
                assert out[i].tobytes() == row.tobytes()

    def test_golden_digest(self):
        # any change to the noise streams changes these bytes
        assert digest(*golden_noise()) == (
            "46f16d27250370515d9d1ce190d088ba366afa3745627730bdad05e15c3afb1c")

    def test_moments(self):
        g = build_time_grid(1.0, 100)
        nb = sample_noise(g, 1000, seed=11)   # 1e5 increments per channel
        se = np.sqrt(g.dt / nb.dW.size)
        assert abs(nb.dW.mean()) < 4 * se
        corr = np.corrcoef(nb.dW.ravel(), nb.dB.ravel())[0, 1]
        assert abs(corr) < 4 / np.sqrt(nb.dW.size)

    def test_fresh_arrays_are_writable(self):
        nb = sample_noise(build_time_grid(1.0, 5), 3, seed=1)
        assert nb.dW.flags.writeable and nb.dB.flags.writeable
        nb.dW[0, 0] = 0.0

    def test_roles_are_distinct(self):
        roles = {name: v for name, v in vars(model).items() if name.startswith("ROLE_")}
        assert "ROLE_PROBE" in roles
        assert len(set(roles.values())) == len(roles), roles


def seed_sequence(seed, role, index, extra=0):
    """numpy's SeedSequence for the (seed, role, index, extra) substream: the
    reference whose hash `substream_keys` reproduces."""
    index = int(index)
    spawn = (role, index & 0xFFFFFFFF, (index >> 32) & 0xFFFFFFFF, int(extra))
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn)


def seed_sequence_key(seed, role, index, extra):
    """The Philox key numpy derives for the (seed, role, index, extra) substream."""
    return seed_sequence(seed, role, index, extra).generate_state(2, np.uint64)


INT64 = st.integers(-2**63, 2**63 - 1)


class TestSubstreamKeys:
    @given(seed=st.one_of(st.integers(0, 2**200),
                          st.sampled_from([0, 2**32 - 1, 2**32, 2**128, 2**200])),
           role=st.integers(0, 9),
           index=st.lists(st.one_of(INT64, st.sampled_from([-1, 2**32, 2**32 - 1])),
                          min_size=1, max_size=4),
           extra=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    def test_match_seed_sequence(self, seed, role, index, extra):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = substream_keys(seed, role, np.array(index)[:, None], np.array(extra))
            scalar = substream_keys(seed, role, index[0], extra[0])
            draws = substream(seed, role, index[0], extra[0]).random(5)
        assert keys.shape == (len(index), len(extra), 2) and keys.dtype == np.uint64
        for i, ix in enumerate(index):
            for e, ex in enumerate(extra):
                np.testing.assert_array_equal(keys[i, e],
                                              seed_sequence_key(seed, role, ix, ex))
        np.testing.assert_array_equal(scalar, keys[0, 0])
        ref = np.random.Generator(np.random.Philox(
            seed_sequence(seed, role, index[0], extra[0])))
        np.testing.assert_array_equal(draws, ref.random(5))

    @pytest.mark.parametrize("index,extra", [
        pytest.param(0, -1, id="-1"), pytest.param(0, 2**32, id="4294967296"),
        pytest.param(0, 0.5, id="0.5"), pytest.param(0, [0, 2**40], id="extra3"),
        pytest.param(2.5, 0, id="index2.5"), pytest.param(3.0, 0, id="index3.0"),
        pytest.param([1, 0.5], 0, id="index_array"),
    ])
    def test_extra_out_of_range(self, index, extra):
        # a float index is refused, not truncated to another path's stream
        for call in (substream_keys, substream):
            with pytest.raises(InvalidArgumentError, match="index" if extra == 0 else "extra"):
                call(1, 2, index, extra)

    def test_one_key_derivation(self):
        # every stream is keyed by substream_keys; no second derivation in src/
        banned = re.compile(r"SeedSequence|default_rng|(np|numpy)\.random\.seed")
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            assert not banned.search(path.read_text(encoding="utf-8")), path.name

    def test_one_path_per_job(self):
        # presets alone decide what a constant or affine coefficient is,
        # Picard builds its target with sign_of_regression_policy, a Kalman
        # control rule is a test's own, and a policy is a time table or a
        # sign rule; mixture_prune stays a PicardConfig field that nothing reads
        src = Path(model.__file__).parent
        assert ".name ==" not in (src / "filtering.py").read_text(encoding="utf-8")
        assert not re.search(r"\.params\b|\.name\s*[!=]=",
                             (src / "cli.py").read_text(encoding="utf-8"))
        assert POLICY_KINDS == ("piecewise_table", "sign_of_regression")
        for path in sorted(src.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"\bsign_policy\b|KalmanControlRule|mixture_policy",
                                 text), path.name
            prune = [line.strip() for line in text.splitlines() if "mixture_prune" in line]
            assert prune == (["mixture_prune: float = 0.02"]
                             if path.name == "minimax.py" else []), path.name

    def test_one_resampling_threshold(self):
        # the filter's resampling threshold is a filtering constant that no
        # other module passes along or reads
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "ess_threshold" not in text, path.name
            assert ("ESS_THRESHOLD" in text) == (path.name == "filtering.py"), path.name

    @pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 3.0, float("nan"),
                                      float("inf"), "7", None])
    def test_bad_seed(self, seed):
        g = build_time_grid(1.0, 4)
        for call in (lambda: substream_keys(seed, 0, 0),
                     lambda: substream(seed, 0),
                     lambda: sample_noise(g, 3, seed)):
            with pytest.raises(InvalidArgumentError, match="seed"):
                call()

    def test_numpy_integer_seed(self):
        g = build_time_grid(1.0, 4)
        a, b = sample_noise(g, 3, np.uint64(7)), sample_noise(g, 3, 7)
        assert a.seed == 7 and type(a.seed) is int
        np.testing.assert_array_equal(a.dW, b.dW)


class TestSharedNoise:
    """simulate_bundle draws fresh noise unless it is given a bundle; common
    random numbers are shared by passing one bundle down."""

    def test_each_key_gets_its_own_draw(self, tanh_model):
        g, g2 = build_time_grid(1.0, 10), build_time_grid(2.0, 10)
        runs = [(g, 6, 3, "P", zero_policy()),
                (g, 6, 4, "Q", constant_policy(0.25)),
                (g2, 6, 3, "Q_tilde", zero_policy()),
                (g, 6, 3, "Q", constant_policy(-0.25))]
        for grid, n, seed, measure, policy in runs:
            bundle = simulate_bundle(tanh_model, policy, grid, n, seed,
                                     measure=measure)
            fresh = sample_noise(grid, n, seed)
            np.testing.assert_array_equal(bundle.noise.dW, fresh.dW)
            np.testing.assert_array_equal(bundle.noise.dB, fresh.dB)

    def test_same_key_draws_equal_but_distinct_noise(self, tanh_model):
        g = build_time_grid(1.0, 10)
        first = simulate_bundle(tanh_model, zero_policy(), g, 4, 7).noise
        again = simulate_bundle(tanh_model, zero_policy(), g, 4, 7).noise
        assert again is not first
        for a, b in ((first.dW, again.dW), (first.dB, again.dB)):
            assert a is not b
            np.testing.assert_array_equal(a, b)

    def test_supplied_noise_used_as_given(self, tanh_model):
        g = build_time_grid(1.0, 10)
        zeros = NoiseBundle(dW=np.zeros((4, 10)), dB=np.zeros((4, 10)), seed=7,
                            dt=g.dt)
        bundle = paths_on(tanh_model, zeros, g, "Q_tilde")
        assert bundle.noise is zeros
        np.testing.assert_array_equal(bundle.Y, 0.0)

    def test_noise_from_another_grid_rejected(self, tanh_model):
        # same path and step counts, but increments of variance 1/50 on a
        # grid whose steps are 2/50 long
        noise = sample_noise(build_time_grid(1.0, 50), 4, 7)
        with pytest.raises(ShapeError):
            paths_on(tanh_model, noise, build_time_grid(2.0, 50))
        # the right grid, but another seed's paths
        with pytest.raises(ShapeError, match="seed"):
            simulate_bundle(tanh_model, zero_policy(), build_time_grid(1.0, 50), 4, 5,
                            noise=noise)

    @pytest.mark.parametrize("family", ["picard_solve", "grid_sup_cost", "minimax_gap",
                                        "saddle_probes", "gateaux_fd"])
    def test_crn_family_draws_once(self, tanh_model, monkeypatch, family):
        grid, n_paths, seed, families = crn_families(tanh_model)
        run, by_hand = families[family]
        # a draw no seed of the family gives, so every simulation it runs must
        # have received this one bundle for the results to match by hand; it
        # carries the family's seed, which simulate_bundle checks
        hand = dataclasses.replace(sample_noise(grid, n_paths, seed=999), seed=seed)
        draws = []

        def counting(name):
            def draw(grid_, n, seed_):
                assert (grid_.n_steps, grid_.dt, n) == (grid.n_steps, grid.dt, n_paths)
                draws.append(name)
                return hand
            return draw

        for mod in (model, bsde, minimax, oracles):
            monkeypatch.setattr(mod, "sample_noise", counting(mod.__name__))
        got = run()
        # drawn once by the family itself, never per simulation
        assert len(draws) == 1 and draws[0] != "ambifilter.model"
        expected = by_hand(hand)
        assert len(draws) == 1   # by hand, every simulation is given the noise
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


def crn_families(m):
    """The common grid, path count and seed, and for each common-random-number
    family a pair (run, by_hand), where by_hand(noise) recomputes run()'s
    outputs with the noise passed to every simulation explicitly."""
    k, T, seed, n, steps, particles = m.k, m.T, 5, 80, 10, 16
    grid = build_time_grid(T, steps)
    rule = minimax.FilterRule(zero_policy(), n_particles=particles, seed=seed)

    def cost(u_rule, pol, noise):
        return minimax.evaluate_cost(m, u_rule, pol, n, seed, grid, noise=noise)

    config = minimax.PicardConfig(n_paths=n, n_particles=particles, n_steps=steps,
                                  seed=seed, max_iters=2)
    solved = {}

    def picard():
        rep = solved["report"] = minimax.picard_solve(m, config)
        return rep.iterations[0].J, rep.final_cost.per_path

    def picard_by_hand(noise):
        rep = solved["report"]
        per_path, _, _ = bsde.weighted_cost_qtilde(m, zero_policy(), n, particles, seed,
                                                   steps, noise=noise)
        return (float(-2.0 * per_path.mean()),
                cost(rep.final_rule, rep.final_policy, noise).per_path)

    family = oracles.sign_pattern_family(k, 2, T)
    const = minimax.ConstantRule(0.1)

    def sup():
        rep = oracles.grid_sup_cost(m, const, family, n, seed, grid)
        return tuple(r.per_path for r in rep.reports)

    def sup_by_hand(noise):
        return tuple(cost(const, p, noise).per_path for p in family)

    policies = [zero_policy(), constant_policy(k), constant_policy(-k)]
    rules = [rule, minimax.ConstantRule(0.0)]

    def gap():
        rep = minimax.minimax_gap(m, rules, policies, n, seed, n_steps=steps)
        return (rep.J,)

    def gap_by_hand(noise):
        return (np.array([[cost(r, p, noise).J for p in policies] for r in rules]),)

    star = minimax.PicardReport(iterations=(), converged=True,
                                final_policy=constant_policy(0.2), final_rule=rule,
                                final_cost=None)

    def probes():
        out = minimax.saddle_probes(m, star, n_policy_probes=2, deltas=(0.1,),
                                    n_paths=n, seed=seed, n_steps=steps)
        return tuple(p.report.per_path for p in out)

    def probes_by_hand(noise):
        probe_pols = minimax.random_probe_policies(k, T, 2, seed)
        bundle = simulate_bundle(m, star.final_policy, grid, n, seed, measure="Q",
                                 noise=noise)
        shifted = minimax.clamp_control(rule.evaluate(m, grid, bundle.Y) + 0.1, m.f_sup)
        err = m.f.value(bundle.X[:, :-1]) - shifted[:, :-1]
        return (cost(rule, star.final_policy, noise).per_path,
                *(cost(rule, p, noise).per_path for p in probe_pols),
                (err * err).sum(axis=1) * grid.dt)

    base, v = constant_policy(0.05, radius=k), time_table_policy([1.0, -1.0], T, 1.0)
    def fd():
        return (bsde.gateaux_fd(m, base, v, 0.1, n, particles, seed,
                                n_steps=steps).per_path,)

    def fd_by_hand(noise):
        # theta +/- eps*v as a time table built here, in the float order of
        # the weighted sum 0.0 + 1.0 * theta + (s * eps) * v; gateaux_fd's
        # own table must reproduce it bit for bit
        c, vals = base.payload["values"][0], v.payload["values"]
        slopes = []
        for e in (0.1, 0.05):
            jp, jm = (bsde.weighted_cost_qtilde(
                m, time_table_policy(0.0 + 1.0 * c + (s * e) * vals, T, radius=k),
                n, particles, seed, steps, noise=noise)[0] for s in (1.0, -1.0))
            slopes.append((jp - jm) / (2.0 * e))
        w = 0.1 * 0.1 / (0.1 * 0.1 - 0.05 * 0.05)
        return (w * slopes[1] + (1.0 - w) * slopes[0],)

    return grid, n, seed, {"picard_solve": (picard, picard_by_hand),
                           "grid_sup_cost": (sup, sup_by_hand),
                           "minimax_gap": (gap, gap_by_hand),
                           "saddle_probes": (probes, probes_by_hand),
                           "gateaux_fd": (fd, fd_by_hand)}


class TestEvolveSignal:
    def test_frozen_dynamics(self):
        m = model_of(CONST, make_coef("constant", 0.0), CONST, CONST, x0=1.3)
        g = build_time_grid(1.0, 8)
        X = paths_on(m, sample_noise(g, 5, 1), g).X
        assert np.all(X == 1.3)

    def test_deterministic_drift(self):
        m = model_of(make_coef("constant", 0.5), make_coef("constant", 0.0),
                     CONST, CONST, x0=2.0)
        g = build_time_grid(1.0, 10)
        X = paths_on(m, sample_noise(g, 3, 1), g).X
        np.testing.assert_allclose(X[:, -1], 2.5, rtol=1e-12)

    def test_ou_mean(self):
        # dX = -X dt + dW from 2: E X_1 = 2 / e
        m = model_of(make_coef("linear", 0.0, -1.0), make_coef("constant", 1.0),
                     CONST, CONST, x0=2.0)
        g = build_time_grid(1.0, 100)
        X = paths_on(m, sample_noise(g, 10_000, 5), g).X
        target = 2.0 * np.exp(-1.0)
        assert abs(X[:, -1].mean() - target) < 3 * mc_se(X[:, -1])

    def test_missing_feature(self, tanh_model):
        from ambifilter.features import RegressionBasis, fit_ridge
        from ambifilter.policies import sign_of_regression_policy
        basis = RegressionBasis("poly_xm", 1)
        F = basis.design({"x": np.arange(30.0), "m": np.ones(30)})
        tab = fit_ridge(F, 1e-6).fit(np.ones(30))
        pol = sign_of_regression_policy([tab] * 11, basis, 0.25, 0.1)
        with pytest.raises(MissingFeatureError):
            pol.evaluate(0.0, np.full(3, tanh_model.x0))

    def test_policy_radius_guard(self, tanh_model):
        g = build_time_grid(1.0, 10)
        with pytest.raises(InvalidArgumentError):
            paths_on(tanh_model, sample_noise(g, 2, 1), g,
                     policy=constant_policy(0.5, radius=0.5))


class TestEvolveObservation:
    def test_zero_sensor(self, tanh_model):
        g = build_time_grid(1.0, 20)
        nb = sample_noise(g, 4, 2)
        m = model_of(tanh_model.b, tanh_model.sigma, CONST, tanh_model.f)
        Y = paths_on(m, nb, g).Y
        np.testing.assert_array_equal(Y[:, 1:], np.cumsum(nb.dB, axis=1))

    def test_constant_sensor(self):
        c = 0.7
        m = model_of(CONST, make_coef("constant", 1.0), make_coef("constant", c), CONST)
        g = build_time_grid(1.0, 25)
        nb = sample_noise(g, 4, 2)
        Y = paths_on(m, nb, g, "P").Y
        B_T = nb.dB.sum(axis=1)
        np.testing.assert_allclose(Y[:, -1] - B_T, c * 1.0, rtol=1e-10)

    def test_qtilde_quadratic_variation(self, tanh_model):
        g = build_time_grid(1.0, 50)   # dt = 0.02
        nb = sample_noise(g, 400, 9)
        Y = paths_on(tanh_model, nb, g, "Q_tilde").Y
        qv = (np.diff(Y, axis=1) ** 2).sum(axis=1)
        assert abs(qv.mean() - 1.0) < 0.05


class TestEvolveWeight:
    def test_zero_sensor_unit_weight(self, tanh_model):
        m = model_of(tanh_model.b, tanh_model.sigma, CONST, tanh_model.f)
        g = build_time_grid(1.0, 20)
        nb = sample_noise(g, 4, 3)
        assert np.all(paths_on(m, nb, g, "Q_tilde").M == 1.0)

    def test_single_step_value(self):
        # h(X_0) = 1, dY = 0.1, dt = 0.04 -> M = exp(0.1 - 0.02)
        m = model_of(CONST, make_coef("constant", 0.0),
                     make_coef("constant", 1.0), CONST, x0=0.0, T=0.04)
        g = build_time_grid(0.04, 1)
        nb = NoiseBundle(dW=np.zeros((1, 1)), dB=np.array([[0.1]]), seed=0, dt=g.dt)
        M = paths_on(m, nb, g, "Q_tilde").M
        assert M[0, 1] == pytest.approx(np.exp(0.1 - 0.02), rel=1e-14)

    def test_martingale_under_qtilde(self, tanh_model, grid50):
        bundle = simulate_bundle(tanh_model, zero_policy(), grid50, 10_000, 21,
                                 measure="Q_tilde")
        MT = bundle.M[:, -1]
        assert abs(MT.mean() - 1.0) < 3 * mc_se(MT)
        assert np.all(bundle.M > 0)


class TestGirsanovLogDensity:
    def test_zero_policy(self, tanh_model, grid50):
        nb = sample_noise(grid50, 6, 4)
        logL = paths_on(tanh_model, nb, grid50).log_density
        assert np.all(logL == 0.0)

    def test_constant_policy_recomputation(self, tanh_model, grid50):
        k = 0.25
        nb = sample_noise(grid50, 6, 4)
        logL = paths_on(tanh_model, nb, grid50,
                        policy=constant_policy(k)).log_density
        # independent recomputation from the stored increments
        W_T = nb.dW.sum(axis=1)
        np.testing.assert_allclose(logL[:, -1], k * W_T - 0.5 * k * k, rtol=1e-10)

    def test_density_normalization(self, tanh_model, grid50):
        bundle = simulate_bundle(tanh_model, constant_policy(0.25), grid50,
                                 10_000, 8, measure="P")
        lam = np.exp(bundle.log_density[:, -1])
        assert np.all(lam > 0)
        assert abs(lam.mean() - 1.0) < 3 * mc_se(lam)


class TestMeasureConsistency:
    def test_qtilde_weighting_matches_base(self, tanh_model, grid50):
        # same W noise: E_P[phi(X_T)] = E~[M_T phi(X_T)] within 3 SE
        bP = simulate_bundle(tanh_model, zero_policy(), grid50, 8000, 33, measure="P")
        bQt = simulate_bundle(tanh_model, zero_policy(), grid50, 8000, 33,
                              measure="Q_tilde")
        np.testing.assert_array_equal(bP.X, bQt.X)  # same drift, same W noise
        phi = np.tanh(bP.X[:, -1])
        weighted = bQt.M[:, -1] * phi
        se = np.sqrt(mc_se(weighted) ** 2 + mc_se(phi) ** 2)
        assert abs(weighted.mean() - phi.mean()) < 3 * se

    def test_girsanov_change_of_measure(self, tanh_model, grid50):
        # E_P[Lambda_T phi(X_T)] = E_Q[phi(X_T)] within 3 SE, same noise
        pol = constant_policy(0.25)
        bP = simulate_bundle(tanh_model, pol, grid50, 8000, 34, measure="P")
        bQ = simulate_bundle(tanh_model, pol, grid50, 8000, 34, measure="Q")
        lhs = np.exp(bP.log_density[:, -1]) * np.tanh(bP.X[:, -1])
        rhs = np.tanh(bQ.X[:, -1])
        se = np.sqrt(mc_se(lhs) ** 2 + mc_se(rhs) ** 2)
        assert abs(lhs.mean() - rhs.mean()) < 3 * se


class TestStrongConvergence:
    def test_halved_dt_moves_less_than_se(self):
        # refine on a shared Brownian path: coarse increments are sums of
        # fine ones, so the difference is pure discretization bias
        m = model_of(make_coef("linear", 0.0, -1.0), make_coef("constant", 1.0),
                     CONST, CONST, x0=2.0)
        g_f = build_time_grid(1.0, 100)
        nb_f = sample_noise(g_f, 10_000, 6)
        g_c = build_time_grid(1.0, 50)
        nb_c = NoiseBundle(dW=nb_f.dW.reshape(10_000, 50, 2).sum(axis=2),
                           dB=nb_f.dB.reshape(10_000, 50, 2).sum(axis=2),
                           seed=6, dt=g_c.dt)
        Xf = paths_on(m, nb_f, g_f).X
        Xc = paths_on(m, nb_c, g_c).X
        assert abs(Xf[:, -1].mean() - Xc[:, -1].mean()) < mc_se(Xf[:, -1])


class TestDeterminismAndClamping:
    def test_simulate_bundle_bit_identical(self, tanh_model, grid50):
        a = simulate_bundle(tanh_model, constant_policy(0.2), grid50, 50, 12,
                            measure="Q_tilde")
        b = simulate_bundle(tanh_model, constant_policy(0.2), grid50, 50, 12,
                            measure="Q_tilde")
        for fa, fb in ((a.X, b.X), (a.Y, b.Y), (a.M, b.M),
                       (a.log_density, b.log_density)):
            assert np.array_equal(fa, fb)

    def test_bundle_initial_values(self, tanh_model, grid50):
        for measure in ("P", "Q", "Q_tilde"):
            bundle = simulate_bundle(tanh_model, constant_policy(0.2), grid50,
                                     20, 13, measure=measure)
            assert np.all(bundle.X[:, 0] == tanh_model.x0)
            assert np.all(bundle.Y[:, 0] == 0.0)
            assert np.all(bundle.M[:, 0] == 1.0)
            assert np.all(bundle.log_density[:, 0] == 0.0)
            assert np.all(bundle.M > 0.0)

    @given(st.floats(0.0, 0.5), st.lists(st.floats(-5.0, 5.0), min_size=1,
                                          max_size=6),
           st.floats(-3.0, 3.0))
    def test_policy_always_clamped(self, k, table, x):
        pol = time_table_policy(table, 1.0, radius=k)
        vals = pol.evaluate(0.3, np.array([x]))
        assert np.all(np.abs(vals) <= k + 1e-15)

    def test_table_clipped_when_built(self):
        pol = time_table_policy([0.5, -0.7], 1.0, 0.25)
        np.testing.assert_array_equal(pol.payload["values"], [0.25, -0.25])
        assert pol.digest() == time_table_policy([0.25, -0.25], 1.0, 0.25).digest()
        # evaluate clips nothing, so the stored values are what it returns
        assert pol.evaluate(0.2, np.zeros(3)) == 0.25
        assert pol.evaluate(0.7, np.zeros(3)) == -0.25


def _sign_member(const):
    basis = RegressionBasis("poly_xm", 1)
    F = basis.design({"x": np.linspace(-1, 1, 30), "m": np.linspace(0.5, 2, 30)})
    tab = fit_ridge(F, 1e-6).fit(const + np.linspace(-1, 1, 30))
    return sign_of_regression_policy([tab] * 11, basis, 0.25, 0.1)


class TestPolicyEvaluation:
    def test_time_only_policy_is_one_float(self):
        pol = time_table_policy([0.1, -0.1], 1.0, 0.1)
        val = pol.evaluate(0.7, np.linspace(-1, 1, 5))
        assert np.ndim(val) == 0
        assert val == -0.1
        assert zero_policy().evaluate(0.3, np.ones(4)) == 0.0
        assert not pol.needs_m
        assert _sign_member(0.2).needs_m


class TestPolicyValidation:
    @pytest.mark.parametrize("feature_map", ["poly_xu"])
    def test_sign_policy_rejects_control_feature(self, feature_map):
        basis = RegressionBasis(feature_map, 1)
        tab = FrozenRegression(np.zeros(basis.n_features))
        with pytest.raises(InvalidArgumentError):
            sign_of_regression_policy([tab] * 3, basis, 0.25, 0.5)

    @pytest.mark.parametrize("n_tables, dt", [
        (0, 0.5), (3, 0.0), (3, np.nan), (3, -0.1), (3, np.inf),
    ])
    def test_sign_policy_rejects_bad_schedule(self, n_tables, dt):
        # each failed only at evaluate (ZeroDivisionError, ValueError,
        # IndexError), or used table 0 for every t when dt < 0
        basis = RegressionBasis("poly_xm", 1)
        tab = FrozenRegression(np.zeros(basis.n_features))
        with pytest.raises(InvalidArgumentError):
            sign_of_regression_policy([tab] * n_tables, basis, 0.25, dt)

    @pytest.mark.parametrize("values, horizon", [
        ([], 1.0), ([0.1, np.nan], 1.0), ([np.inf], 1.0), ([0.1], 0.0),
        ([0.1], -1.0), ([0.1], np.nan),
    ])
    def test_time_table_rejects_bad_input(self, values, horizon):
        with pytest.raises(InvalidArgumentError):
            time_table_policy(values, horizon, 0.25)

    def test_digest_ignores_number_type(self):
        assert len({constant_policy(v).digest()
                    for v in (1, 1.0, np.float64(1.0))}) == 1
        assert len({time_table_policy([0.2, 0], 1.0, r).digest()
                    for r in (1, 1.0, np.float64(1.0))}) == 1

    def test_nan_radius_rejected(self):
        with pytest.raises(InvalidArgumentError):
            time_table_policy([0.1], 1.0, np.nan)
        basis = RegressionBasis("poly_xm", 1)
        with pytest.raises(InvalidArgumentError):
            sign_of_regression_policy([FrozenRegression(np.zeros(basis.n_features))],
                                      basis, np.nan, 0.1)


SMALL_FLOATS = st.floats(-1e100, 1e100)   # no product overflows


class TestCoefPresetValues:
    @given(c=SMALL_FLOATS, slope=SMALL_FLOATS,
           x=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=4),
                        elements=SMALL_FLOATS))
    def test_constant_slope_broadcasts_bit_for_bit(self, c, slope, x):
        # a constant value or slope is a number; against any x it gives the
        # bits of the arrays it used to be built as, -0.0 included
        const, lin = make_coef("constant", c), make_coef("linear", c, slope)
        for got, old in ((const.value(x), np.full_like(x, c)),
                         (const.deriv(x), np.zeros_like(x)),
                         (lin.deriv(x), np.full_like(x, slope)),
                         (lin.value(x), c + slope * x)):
            assert np.broadcast_to(got, x.shape).tobytes() == old.tobytes()
            assert (x * got).tobytes() == (x * old).tobytes()
            assert (got + x).tobytes() == (old + x).tobytes()
        assert isinstance(lin.value(0.5), np.floating)
        assert lin.value(0.5) == c + slope * 0.5


class TestModelSpecValidation:
    def test_sigma_must_be_nonnegative(self):
        with pytest.raises(InvalidArgumentError):
            model_of(CONST, make_coef("linear", 0.0, 1.0), CONST, CONST)

    @pytest.mark.parametrize("sigma", [
        make_coef("tanh", 1.0, 0.01, 0.0, 0.5),   # negative below x ~ -55
        make_coef("sine", 1.0, 0.02, 0.0, 0.5),   # negative on (-131, -26)
        make_coef("linear", 13.0, -1.0),          # negative above x = 13
    ])
    def test_sigma_negative_far_from_origin(self, sigma):
        with pytest.raises(InvalidArgumentError):
            model_of(CONST, sigma, CONST, CONST)

    @pytest.mark.parametrize("coef,inf", [
        (make_coef("constant", -0.3), -0.3),
        (make_coef("linear", 0.4, 0.0), 0.4),
        (make_coef("linear", 0.4, -2.0), -np.inf),
        (make_coef("tanh", -1.0, 2.0, 0.5, 1.5), 0.5),
        (make_coef("sine", 0.5, 3.0, 0.0, 0.25), -0.25),
        (make_coef("tanh", 1.0, 0.0, 0.5, 1.0), np.tanh(0.5) + 1.0),
        (make_coef("sine", 2.0, 0.0, 0.5, 0.0), 2.0 * np.sin(0.5)),
    ])
    def test_preset_infimum(self, coef, inf):
        assert coef.inf == inf

    @pytest.mark.parametrize("kwargs", [
        {"k": np.nan}, {"k": np.inf}, {"T": np.nan}, {"T": np.inf},
        {"sigma": make_coef("constant", np.nan)},
        {"sigma": make_coef("tanh", 1.0, 1.0, np.nan, 2.0)},
        {"x0": np.nan}, {"x0": -np.inf},
    ])
    def test_non_finite_values_rejected(self, kwargs):
        args = {"b": CONST, "sigma": make_coef("constant", 0.5), "h": CONST,
                "f": CONST}
        args.update(kwargs)
        with pytest.raises(InvalidArgumentError):
            model_of(**args)

    def test_h1_flags(self, tanh_model, linear_model):
        assert tanh_model.h1_compliant
        assert not linear_model.h1_compliant

    def test_f_sup(self, tanh_model, linear_model):
        assert tanh_model.f_sup == pytest.approx(1.0)
        assert np.isinf(linear_model.f_sup)
