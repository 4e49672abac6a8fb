import itertools

import numpy as np
import pytest
from dataclasses import replace

from ambifilter import bsde
from ambifilter.bsde import solve_adjoint, solve_worst_value
from ambifilter.errors import InvalidArgumentError
from ambifilter.features import RegressionBasis, fit_ridge
from ambifilter import minimax
from ambifilter.minimax import (CONTROL_SHIFTS, ConstantRule,
                                ControlRule, FilterRule, PicardConfig, PicardIteration,
                                clamp_control, evaluate_cost, minimax_gap,
                                picard_solve, saddle_probes)
from ambifilter.model import ModelSpec, build_time_grid, simulate_bundle
from ambifilter.filtering import run_filter, run_filter_bank
from ambifilter.oracles import LinearGaussianSpec, kalman_bucy
from ambifilter.policies import (constant_policy, sign_of_regression_policy,
                                 time_table_policy, zero_policy)
from ambifilter.presets import make_coef

from conftest import traced_peak


class TestClampControl:
    def test_interior_point(self):
        assert clamp_control(np.array([0.5]), 1.0)[0] == 0.5

    def test_upper_clip(self):
        assert clamp_control(np.array([3.0]), 1.0)[0] == 1.0

    def test_never_increases_error(self):
        rng = np.random.default_rng(3)
        f = np.tanh(rng.normal(size=500))
        u = rng.normal(scale=3.0, size=500)
        clamped = clamp_control(u, 1.0)
        assert np.all(np.abs(f - clamped) <= np.abs(f - u) + 1e-15)

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidArgumentError):
            clamp_control(np.array([0.0]), -1.0)


class TestEvaluateCost:
    def test_perfect_constant_control(self, grid50):
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", 1.7),
                      x0=0.0, T=1.0, k=0.25)
        rep = evaluate_cost(m, ConstantRule(1.7), constant_policy(0.25), 100,
                            5, grid50)
        assert rep.J == 0.0 and rep.se == 0.0

    def test_zero_control_constant_target(self, grid50):
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", 1.7),
                      x0=0.0, T=1.0, k=0.25)
        for theta in (zero_policy(), constant_policy(0.25)):
            rep = evaluate_cost(m, ConstantRule(0.0), theta, 100, 5, grid50)
            assert rep.J == pytest.approx(1.7 ** 2 * 1.0, rel=1e-12)

    def test_kalman_rule_matches_riccati_integral(self, linear_model):
        grid = build_time_grid(1.0, 100)
        spec = LinearGaussianSpec(a=0.0, sigma=1.0, c=1.0, x0=0.0, T=1.0)

        class KalmanRule(ControlRule):   # the Kalman-Bucy conditional mean
            def evaluate(self, model, grid, Y):
                return kalman_bucy(spec, Y, grid)[0]

        rep = evaluate_cost(linear_model, KalmanRule(), zero_policy(), 2000, 6, grid)
        target = float(np.log(np.cosh(1.0)))  # integral of tanh(t) on [0,1]
        assert rep.J == pytest.approx(target, rel=0.05)

    def test_inadmissible_adversary(self, tanh_model, grid50):
        with pytest.raises(InvalidArgumentError):
            evaluate_cost(tanh_model, ConstantRule(0.0),
                          constant_policy(0.5, radius=0.5), 50, 1, grid50)

    def test_deterministic(self, tanh_model, grid50):
        args = (tanh_model, FilterRule(zero_policy(), n_particles=32, seed=9),
                constant_policy(0.2), 60, 9, grid50)
        a = evaluate_cost(*args)
        b = evaluate_cost(*args)
        assert a.J == b.J and np.array_equal(a.per_path, b.per_path)


class TestSignPolicy:
    def _sign_rule(self, const: float, grid, k: float):
        # k sgn(P_hat) on a regressed adjoint surface that is const everywhere
        basis = RegressionBasis("poly_xm", 1)
        n = 50
        F = basis.design({"x": np.linspace(-1, 1, n), "m": np.ones(n)})
        tab = fit_ridge(F).fit(np.full(n, const))
        return sign_of_regression_policy(np.tile(tab.w, (grid.n_steps + 1, 1)), basis, k,
                                         grid.dt)

    def test_positive_surface(self, grid50):
        pol = self._sign_rule(2.5, grid50, 0.25)
        vals = pol.evaluate(0.4, np.linspace(-1, 1, 7), np.ones(7))
        np.testing.assert_array_equal(vals, 0.25)

    def test_zero_surface_gives_zero(self, grid50):
        pol = self._sign_rule(0.0, grid50, 0.25)
        vals = pol.evaluate(0.4, np.linspace(-1, 1, 7), np.ones(7))
        np.testing.assert_array_equal(vals, 0.0)


@pytest.fixture(scope="module")
def picard_25(tanh_model):
    cfg = PicardConfig(n_paths=600, n_particles=150, n_steps=50, seed=99,
                       max_iters=10)
    return picard_solve(tanh_model, cfg)


class TestPicard:
    def test_k0_single_iteration(self, tanh_model):
        m = replace(tanh_model, k=0.0)
        cfg = PicardConfig(n_paths=150, n_particles=64, n_steps=20, seed=31)
        rep = picard_solve(m, cfg)
        assert rep.converged and len(rep.iterations) == 1
        assert rep.iterations[0].sign_agreement == 1.0

    def test_k0_equals_classical_filter_exactly(self, tanh_model):
        m = replace(tanh_model, k=0.0)
        cfg = PicardConfig(n_paths=50, n_particles=64, n_steps=20, seed=32)
        rep = picard_solve(m, cfg)
        grid = build_time_grid(m.T, 20)
        bundle = simulate_bundle(m, zero_policy(), grid, 1, 77, measure="P")
        via_rule = rep.final_rule.evaluate(m, grid, bundle.Y[:1])
        direct = run_filter(m, zero_policy(), bundle.Y[0], 64, seed=cfg.seed).u
        np.testing.assert_array_equal(via_rule[0], direct)
        assert np.all(np.abs(via_rule) <= m.f_sup)  # clamp safety

    def test_initial_policy(self, tanh_model):
        cfg = PicardConfig(n_paths=100, n_particles=16, n_steps=10, seed=33,
                           max_iters=3)
        default = picard_solve(tanh_model, cfg)
        explicit = picard_solve(tanh_model, cfg, initial_policy=zero_policy())
        assert explicit.iterations == default.iterations
        assert explicit.final_policy.digest() == default.final_policy.digest()
        up = picard_solve(tanh_model, cfg, initial_policy=constant_policy(0.25))
        assert up.iterations[0].J != default.iterations[0].J
        with pytest.raises(InvalidArgumentError, match="radius"):
            picard_solve(tanh_model, cfg, initial_policy=constant_policy(0.5))

    def test_final_j_vs_brute_force_at_final_control(self, tanh_model, picard_25):
        # the converged adversary is a state-feedback sign policy; it must
        # dominate every piecewise-constant-in-time pattern at the final
        # control, and the measured advantage stays modest (~6% here, the
        # extra worst-case cost state dependence buys over time-only signs)
        from ambifilter.oracles import grid_sup_cost, sign_pattern_family
        rep = picard_25
        assert rep.converged
        fam = sign_pattern_family(tanh_model.k, 2, tanh_model.T)
        sup = grid_sup_cost(tanh_model, rep.final_rule, fam, 600, 99,
                            build_time_grid(tanh_model.T, 50))
        assert rep.final_cost.J >= sup.J_worst - 3 * sup.se_worst
        assert abs(rep.final_cost.J - sup.J_worst) / sup.J_worst <= 0.10

    def test_saddle_value_consistent_with_worst_value(self, tanh_model, picard_25):
        # the fixed-point cost J(u*, theta*) cannot exceed the backward
        # solver's sup over all admissible drifts at the same control, and
        # the two should land close; checked numerically, not assumed
        rep = picard_25
        assert rep.converged
        grid = build_time_grid(tanh_model.T, 50)
        bundle = simulate_bundle(tanh_model, zero_policy(), grid, 800, 36,
                                 measure="P")
        u = rep.final_rule.evaluate(tanh_model, grid, bundle.Y)
        sol = solve_worst_value(bundle, u, tanh_model,
                                RegressionBasis("poly_xu", 3))
        J_star = rep.final_cost.J
        assert sol.y0 >= J_star - 3 * rep.final_cost.se
        assert abs(sol.y0 - J_star) / J_star <= 0.2

    def test_constant_target_degenerates(self):
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", 2.0),
                      x0=0.3, T=1.0, k=0.25)
        cfg = PicardConfig(n_paths=150, n_particles=64, n_steps=20, seed=33,
                           max_iters=6)
        rep = picard_solve(m, cfg)
        assert rep.converged
        assert rep.final_cost.J == pytest.approx(0.0, abs=1e-12)
        for it in rep.iterations:
            assert it.J == pytest.approx(0.0, abs=1e-12)

    def test_converged_returns_sign_rule(self, tanh_model, picard_25):
        # the fixed point is the last target k sgn(P_hat) the stopping rule
        # compared
        rep = picard_25
        assert rep.converged
        assert rep.final_policy.kind == "sign_of_regression"
        assert rep.final_rule.policy is rep.final_policy
        k = tanh_model.k
        grid = build_time_grid(tanh_model.T, 20)
        bundle = simulate_bundle(tanh_model, zero_policy(), grid, 50, 7,
                                 measure="Q_tilde")
        values = np.concatenate([
            rep.final_policy.evaluate(t, bundle.X[:, j], bundle.M[:, j])
            for j, t in enumerate(grid.times)])
        assert set(np.unique(values)) <= {-k, 0.0, k}

    @pytest.mark.parametrize("k", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_undamped_converges_fast(self, tanh_model, seed, k):
        # the picard benchmark workload's shape; its solve time rests on
        # undamped Picard converging here in 3-4 iterations
        cfg = PicardConfig(n_paths=2000, n_particles=10, n_steps=25, seed=seed,
                           max_iters=10)
        rep = picard_solve(replace(tanh_model, k=k), cfg)
        assert rep.converged
        assert len(rep.iterations) <= 5

    def test_zero_radius_iterates_nothing(self, linear_model):
        # theta = 0 is the only policy at k = 0: no adjoint is solved (it would
        # reject the unbounded linear model) and a start policy is ignored
        cfg = PicardConfig(n_paths=60, n_particles=16, n_steps=10, seed=3)
        rep = picard_solve(linear_model, cfg)
        started = picard_solve(linear_model, cfg, initial_policy=constant_policy(0.3))
        assert rep.converged
        assert rep.iterations == (PicardIteration(1, rep.final_cost.J, 1.0),)
        assert rep.final_policy.digest() == zero_policy().digest()
        for a, b in ((rep.iterations, started.iterations),
                     (rep.converged, started.converged),
                     (rep.final_policy.digest(), started.final_policy.digest()),
                     (rep.final_rule.digest(), started.final_rule.digest()),
                     (rep.final_cost.se, started.final_cost.se)):
            assert a == b
        np.testing.assert_array_equal(rep.final_cost.per_path, started.final_cost.per_path)

    def test_nonconvergence_reported_not_raised(self, tanh_model):
        cfg = PicardConfig(n_paths=120, n_particles=50, n_steps=15, seed=34,
                           max_iters=1)
        rep = picard_solve(tanh_model, cfg)
        assert not rep.converged
        assert len(rep.iterations) == 1
        # without convergence the last target k sgn(P_hat) is returned
        assert rep.final_policy.kind == "sign_of_regression"
        assert rep.final_rule.policy is rep.final_policy

    def test_cycling_run_ends_at_max_iters(self, tanh_model, monkeypatch):
        # each iterate is the previous target k sgn(P_hat), whatever the
        # agreement does; the targets cycle t1, t1, t2 (+k everywhere, then +k
        # before t = 0.5 and -k from there on), so no two consecutive
        # agreements pass 1 - tol and the run ends unconverged at max_iters
        signs = itertools.cycle([[1.0] * 9, [1.0] * 9, [1.0] * 4 + [-1.0] * 5])
        targets, iterates = [], []

        def target(tables, basis, k, dt):   # constant surfaces, one per step
            const = np.outer(next(signs), np.eye(basis.n_features)[0])
            targets.append(sign_of_regression_policy(const, basis, k, dt))
            return targets[-1]

        def adjoint(bundle, u, model, theta):
            iterates.append(theta)
            return solve_adjoint(bundle, u, model, theta)

        monkeypatch.setattr(minimax, "sign_of_regression_policy", target)
        monkeypatch.setattr(minimax, "solve_adjoint", adjoint)
        rep = picard_solve(tanh_model, PicardConfig(
            n_paths=100, n_particles=8, n_steps=8, seed=5, max_iters=5))
        # t2 agrees with t1 on the 4 of 9 grid times before t = 0.5
        assert [it.sign_agreement for it in rep.iterations] == [
            0.0, 1.0, pytest.approx(4 / 9), pytest.approx(4 / 9), 1.0]
        assert not rep.converged
        assert iterates[0].digest() == zero_policy().digest()
        assert len(iterates) == len(targets) == 5
        assert all(it is tg for it, tg in zip(iterates[1:], targets))
        assert rep.final_policy is targets[-1]
        assert rep.final_policy.kind == "sign_of_regression"
        assert rep.final_rule.policy is rep.final_policy

    def test_bad_config(self):
        with pytest.raises(InvalidArgumentError):
            PicardConfig(max_iters=0)
        for tol in (float("nan"), -0.01, 2.0, float("inf")):
            with pytest.raises(InvalidArgumentError, match="tol"):
                PicardConfig(tol=tol)
        PicardConfig(tol=0.0)
        PicardConfig(tol=1.0)

    @pytest.mark.parametrize("n_paths", [1, 0, -3])
    def test_needs_two_paths(self, n_paths):
        # one path gave se = nan at k = 0 and an IllConditionedBasisError,
        # a numerical-failure class, at k > 0
        with pytest.raises(InvalidArgumentError, match="n_paths"):
            PicardConfig(n_paths=n_paths)

    @pytest.mark.parametrize("field, value", [
        ("n_particles", 1), ("n_particles", 0), ("n_steps", 0), ("n_steps", -1),
    ])
    def test_bad_cloud_or_grid(self, field, value):
        # each was accepted when the config was built, and failed only once
        # picard_solve ran
        with pytest.raises(InvalidArgumentError, match=field):
            PicardConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 20.5), ("n_particles", 16.5), ("n_steps", 4.5), ("max_iters", 2.5),
        ("n_paths", 20.0), ("max_iters", "3"),
        ("n_paths", True), ("n_particles", True), ("n_steps", True), ("max_iters", True),
    ])
    def test_non_integral_counts_rejected(self, field, value):
        # numpy or range() raised a TypeError for these once picard_solve ran,
        # and a bool ran as the count 1
        with pytest.raises(InvalidArgumentError, match=field):
            PicardConfig(**{field: value})
        PicardConfig(**{field: np.int64(20)})


class TestIterationParticles:
    """Picard's iterations filter at a fifth of the particles, and at least
    2; its final pass, which J* and every saddle row come from, at
    n_particles."""

    @staticmethod
    def bank_sizes(monkeypatch, model, config):
        sizes = []

        def spy(model_, policy, dY, dt, n_particles, *args, **kwargs):
            sizes.append(n_particles)
            return run_filter_bank(model_, policy, dY, dt, n_particles, *args, **kwargs)

        for mod in (bsde, minimax):
            monkeypatch.setattr(mod, "run_filter_bank", spy)
        return sizes, picard_solve(model, config)

    @pytest.mark.parametrize("n, at_iteration", [(2, 2), (9, 2), (10, 2), (64, 12)])
    def test_iterations_small_final_pass_full(self, tanh_model, monkeypatch, n,
                                              at_iteration):
        cfg = PicardConfig(n_paths=100, n_particles=n, n_steps=8, seed=5,
                           max_iters=2, tol=0.0)
        assert cfg.iteration_particles == at_iteration
        sizes, rep = self.bank_sizes(monkeypatch, tanh_model, cfg)
        assert len(rep.iterations) == 2
        assert sizes == [at_iteration, at_iteration, n]
        assert rep.final_rule.n_particles == n

    def test_zero_radius_runs_one_full_bank(self, linear_model, monkeypatch):
        cfg = PicardConfig(n_paths=60, n_particles=64, n_steps=8, seed=3)
        sizes, _ = self.bank_sizes(monkeypatch, linear_model, cfg)
        assert sizes == [64]

    def test_divisor_one_is_the_full_particle_run(self, tanh_model, monkeypatch):
        # every bank at n_particles: the iterations, the fixed point and J*
        # of the run before the iterations were cut, bit for bit
        monkeypatch.setattr(minimax, "ITERATION_PARTICLE_DIVISOR", 1)
        rep = picard_solve(tanh_model, PicardConfig(
            n_paths=120, n_particles=10, n_steps=10, seed=5, max_iters=3, tol=0.0))
        assert [(it.J.hex(), it.sign_agreement.hex()) for it in rep.iterations] == [
            ("0x1.2e7e713597147p-5", "0x1.745d1745d1746p-4"),
            ("0x1.79d22cc0f9060p-5", "0x1.f7dac37dac37ep-1"),
            ("0x1.79ed0dd32eb09p-5", "0x1.ff9cb3f9cb3fap-1")]
        assert rep.final_policy.digest() == "fc147e3ef82b3a0a"
        assert rep.final_cost.J.hex() == "0x1.6e0671ce95c44p-5"


def test_picard_holds_one_iterate(tanh_model):
    # Traced peak of a 600 x 10 x 25 picard_solve in path tables (600 x 26
    # doubles). An iterate is 11 tables (bundle 4, u 1, adjoint 4, sign
    # fields 2); with one held at a time the peak is 14.4 tables, in the
    # filter bank, and it was 27.5 with the previous iterate still held.
    cfg = PicardConfig(n_paths=600, n_particles=10, n_steps=25, seed=5,
                       max_iters=3, tol=0.0)
    # a first run in the process also traces what numpy loads lazily
    picard_solve(tanh_model, replace(cfg, n_paths=100, max_iters=1))
    reports = []
    peak = traced_peak(lambda: reports.append(picard_solve(tanh_model, cfg)))
    assert len(reports[0].iterations) == 3
    assert peak / (600 * 26 * 8) <= 16.0


class TestMinimaxGap:
    def test_singletons(self, tanh_model, grid50):
        rep = minimax_gap(tanh_model, [ConstantRule(0.0)], [zero_policy()],
                          100, 41, n_steps=grid50.n_steps)
        assert rep.min_sup == rep.sup_min
        assert rep.gap == 0.0

    def test_k0_trivial_inner_max(self, tanh_model, grid50):
        m = replace(tanh_model, k=0.0)
        rules = [ConstantRule(0.0), ConstantRule(0.3),
                 FilterRule(zero_policy(), n_particles=32, seed=42)]
        rep = minimax_gap(m, rules, [zero_policy()], 100, 42, n_steps=20)
        assert rep.gap == 0.0

    def test_weak_duality_random_grids(self, tanh_model):
        k = tanh_model.k
        policies = [zero_policy(), constant_policy(k),
                    constant_policy(-k), time_table_policy([k, -k], 1.0, k)]
        rules = [ConstantRule(v) for v in (-0.3, 0.0, 0.4)]
        rep = minimax_gap(tanh_model, rules, policies, 150, 43, n_steps=20)
        assert rep.min_sup >= rep.sup_min  # exact on a single matrix
        assert rep.J.shape == (3, 4)

    def test_policy_major_cells_match_evaluate_cost(self, tanh_model, monkeypatch):
        k, T = tanh_model.k, tanh_model.T
        grid = build_time_grid(T, 20)
        rules = [FilterRule(zero_policy(), n_particles=32, seed=44), ConstantRule(0.3)]
        policies = [zero_policy(), time_table_policy([k], T, k),
                    time_table_policy([-k], T, k)]
        expected = [[evaluate_cost(tanh_model, r, p, 80, 44, grid) for p in policies]
                    for r in rules]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return simulate_bundle(*args, **kwargs)

        monkeypatch.setattr(minimax, "simulate_bundle", counting)
        rep = minimax_gap(tanh_model, rules, policies, 80, 44, n_steps=20)
        assert calls == policies  # one simulation per policy
        for i, row in enumerate(expected):
            for j, cell in enumerate(row):
                assert rep.J[i, j] == cell.J and rep.se[i, j] == cell.se

    def test_empty_grid_rejected(self, tanh_model):
        with pytest.raises(InvalidArgumentError):
            minimax_gap(tanh_model, [], [zero_policy()], 10, 1)


class TestSaddleProbes:
    def test_control_shift_costs_clamped_control(self, tanh_model, monkeypatch):
        # at f_sup = 0.06 and x0 = 0 the 0.05 shifts are clamped on a few
        # percent of theta*'s path steps and the 0.1 shifts on nearly all;
        # 100 paths is the worst-value solve's floor
        m = replace(tanh_model, f=make_coef("tanh", 0.06), x0=0.0)
        cfg = PicardConfig(n_paths=100, n_particles=32, n_steps=10, seed=3, max_iters=3)
        rep = picard_solve(m, cfg)
        simulated = []

        def recording(model, policy, grid, n_paths, seed, measure="Q_tilde", **kwargs):
            simulated.append(measure)
            return simulate_bundle(model, policy, grid, n_paths, seed, measure, **kwargs)

        def no_bank(*args, **kwargs):
            raise AssertionError("saddle_probes ran a filter bank")

        monkeypatch.setattr(minimax, "simulate_bundle", recording)
        for mod in (bsde, minimax):
            monkeypatch.setattr(mod, "run_filter_bank", no_bank)
        probes = saddle_probes(m, rep)
        monkeypatch.undo()
        # the worst value is solved on theta*'s Q paths, simulated once more
        # from the run's noise, with the report's u*: no second sample, no bank
        assert simulated == ["Q"]
        assert [p.kind for p in probes] == (["saddle", "worst_value"]
                                            + ["control_shift"] * len(CONTROL_SHIFTS))
        assert (probes[0].J, probes[0].se) == (rep.final_cost.J, rep.final_cost.se)
        assert probes[1].probe_id == "ustar" and probes[1].se == rep.final_cost.se

        grid = build_time_grid(m.T, 10)
        bundle = simulate_bundle(m, rep.final_policy, grid, 100, 3, measure="Q")
        u = rep.final_rule.evaluate(m, grid, bundle.Y)
        np.testing.assert_array_equal(rep.final_u, u)
        assert probes[1].J == solve_worst_value(bundle, u, m, policy=rep.final_policy).y0
        u = u[:, :-1]
        fx = m.f.value(bundle.X[:, :-1])
        np.testing.assert_array_equal(rep.final_cost.per_path,
                                      ((fx - u) ** 2).sum(axis=1) * grid.dt)
        for probe, d, c in zip(probes[-len(CONTROL_SHIFTS):], CONTROL_SHIFTS,
                               rep.shift_costs):
            assert probe.probe_id == f"delta_{d:+g}"
            assert (np.abs(u + d) > m.f_sup).any()
            expected = ((fx - np.clip(u + d, -m.f_sup, m.f_sup)) ** 2).sum(axis=1) * grid.dt
            np.testing.assert_array_equal(c.per_path, expected)
            assert (probe.J, probe.se) == (c.J, c.se)
