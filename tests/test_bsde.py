import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from dataclasses import replace
from scipy.linalg import qr

from ambifilter.bsde import (gateaux_adjoint, gateaux_fd, solve_adjoint,
                             solve_worst_value, weighted_cost_qtilde)
from ambifilter.errors import (IllConditionedBasisError, InvalidArgumentError)
from ambifilter import features
from ambifilter.features import (FrozenRegression, RegressionBasis, fit_ridge,
                                 monomial_exponents)
from ambifilter.model import ModelSpec, simulate_bundle
from ambifilter.policies import (constant_policy, sign_of_regression_policy,
                                 time_table_policy, zero_policy)
from ambifilter.presets import make_coef

from conftest import mc_se


def p_paths(model, grid, n, seed):
    return simulate_bundle(model, zero_policy(), grid, n, seed, measure="P")


class TestFeatures:
    def test_monomial_counts(self):
        assert len(monomial_exponents(1, 3)) == 4
        assert len(monomial_exponents(2, 2)) == 6
        assert monomial_exponents(2, 2)[0] == (0, 0)

    @pytest.mark.parametrize("feature_map", ["poly_q", "poly_x", "poly_xmu"])
    def test_unknown_map_rejected(self, feature_map):
        with pytest.raises(InvalidArgumentError):
            RegressionBasis(feature_map, 2)

    def test_basis_size_guard(self, tanh_model, grid50):
        bundle = p_paths(tanh_model, grid50, 60, 1)
        u = np.zeros_like(bundle.X)
        with pytest.raises(IllConditionedBasisError):
            solve_worst_value(bundle, u, tanh_model,
                              RegressionBasis("poly_xu", 3))  # 10 feats > 60/10

    def test_shared_projection_matches_fresh_fits(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        basis = RegressionBasis("poly_xu", 2)
        for u in (rng.normal(size=400), x):  # full rank; u = x drops columns
            F = basis.design({"x": x, "u": u})
            ys = (2.0 + 3.0 * x - x * x, np.sin(x) * u, rng.normal(size=400))
            proj = fit_ridge(F, 1e-10)
            shared = [proj.fit(y) for y in ys]
            for y, reg in zip(ys, shared):
                fresh = fit_ridge(F, 1e-10).fit(y)
                assert np.array_equal(reg.w, fresh.w)
            # a target in the span of the kept columns is reproduced
            np.testing.assert_allclose(shared[0].predict(F), ys[0], atol=1e-6)

    def test_collapsed_design_projects_to_mean(self):
        n = 200
        F = RegressionBasis("poly_xu", 3).design({"x": np.full(n, 0.8),
                                                   "u": np.zeros(n)})
        y = np.random.default_rng(4).normal(size=n)
        reg = fit_ridge(F, 1e-6).fit(y)
        assert not reg.w[1:].any()
        np.testing.assert_allclose(reg.predict(F), y.mean(), rtol=1e-12)

    def test_raw_weights_match_standardized_solve(self):
        # column means far from 0: x ~ N(5, 1), so x^3 has mean ~ 140
        rng = np.random.default_rng(6)
        n, lam = 2000, 1e-5
        x, u = rng.normal(5.0, 1.0, size=n), rng.normal(size=n)
        F = RegressionBasis("poly_xu", 3).design({"x": x, "u": u})
        y = np.sin(x) + u * x
        S = (F[:, 1:] - F[:, 1:].mean(0)) / F[:, 1:].std(0)
        D = np.column_stack([np.ones(n), S])
        penalty = lam * np.eye(D.shape[1])
        penalty[0, 0] = 0.0
        coef = np.linalg.solve(D.T @ D + penalty, D.T @ y)
        np.testing.assert_allclose(fit_ridge(F, lam).fit(y).predict(F), D @ coef,
                                   rtol=1e-9)

    def test_condition_limit_read_from_r(self, monkeypatch):
        for n in (500, 3000):  # 3000 rows are factored in row blocks
            rng = np.random.default_rng(5)
            x = rng.normal(size=n)
            basis = RegressionBasis("poly_xu", 1)
            correlated = basis.design({"x": x, "u": x + 1e-4 * rng.normal(size=n)})
            S = correlated[:, 1:]
            cond = np.linalg.cond(np.column_stack([np.ones(n),
                                                   (S - S.mean(0)) / S.std(0)]))
            assert cond > 1e3
            well = basis.design({"x": x, "u": rng.normal(size=n)})
            monkeypatch.setattr(features, "COND_LIMIT", 0.99 * cond)
            with pytest.raises(IllConditionedBasisError):
                fit_ridge(correlated, 1e-6)
            fit_ridge(well, 1e-6)
            monkeypatch.setattr(features, "COND_LIMIT", 1.01 * cond)
            fit_ridge(correlated, 1e-6)

    def test_factorization_calls_stay_below_block(self, monkeypatch):
        # above QR_BLOCK_ELEMENTS numpy's OpenBLAS wakes a worker thread
        shapes = []
        for name in ("qr", "svd"):
            def spy(a, *args, _real=getattr(np.linalg, name), **kw):
                shapes.append(np.shape(a))
                return _real(a, *args, **kw)
            monkeypatch.setattr(np.linalg, name, spy)
        rng = np.random.default_rng(8)
        x = rng.normal(size=2000)
        for basis, values in (
                (RegressionBasis("poly_xm", 2), {"x": x, "m": np.exp(rng.normal(size=2000))}),
                (RegressionBasis("poly_xu", 3), {"x": x[:1000], "u": np.tanh(x[1000:])}),
                (RegressionBasis("poly_xu", 2), {"x": x, "u": x})):  # rank deficient
            fit_ridge(basis.design(values), 1e-5)
        assert shapes
        assert all(r * c <= 8192 for r, c in shapes), shapes

    @pytest.mark.parametrize("n", [features.QR_BLOCK_ELEMENTS // 6,
                                   features.QR_BLOCK_ELEMENTS // 6 + 1, 3000])
    def test_blocked_factorization_matches_direct(self, monkeypatch, n):
        rng = np.random.default_rng(9)
        x = rng.normal(size=n)
        basis = RegressionBasis("poly_xu", 2)  # 6 columns
        y = np.sin(x) + rng.normal(size=n)
        cases = [("full rank", rng.normal(size=n))]
        if n == 3000:
            cases.append(("u = x", x))
        for label, u in cases:
            F = basis.design({"x": x, "u": u})
            blocked = fit_ridge(F, 1e-8 * n)
            with monkeypatch.context() as m:
                m.setattr(features, "_triangular_r", lambda D: np.linalg.qr(D, mode="r"))
                direct = fit_ridge(F, 1e-8 * n)
            assert blocked.D.shape == direct.D.shape, label  # same rank
            assert np.array_equal(blocked.to_raw, direct.to_raw), label  # same columns
            assert np.array_equal(blocked.fit(y).w, direct.fit(y).w), label
            if label == "full rank":
                assert blocked.D.shape[1] == 6
                R = features._triangular_r(blocked.D)
                R0 = np.linalg.qr(blocked.D, mode="r")
                np.testing.assert_allclose(np.abs(R), np.abs(R0), rtol=1e-9,
                                           atol=1e-12 * abs(R0[0, 0]))
            else:
                # of the equal columns the lowest index is kept: 1, u = x and
                # u^2 = x^2, also with the rows, and so the blocks, reversed
                reversed_rows = fit_ridge(F[::-1], 1e-8 * n)
                for proj in (blocked, direct, reversed_rows):
                    assert list(np.flatnonzero(proj.to_raw.any(axis=1))) == [0, 1, 3]

    def test_wide_design_blocks_terminate(self):
        # 70 columns: 8192 // 70 rows per block would not shrink the stack
        D = np.random.default_rng(10).normal(size=(1500, 70))
        R = features._triangular_r(D)
        R0 = np.linalg.qr(D, mode="r")
        np.testing.assert_allclose(np.abs(R), np.abs(R0), rtol=1e-9,
                                   atol=1e-12 * abs(R0[0, 0]))

    def test_rank_rule_matches_scipy_pivoted_qr(self):
        # Reference: scipy's pivoted QR of the whole standardized design under
        # the same rank rule. Standardized columns all have norm sqrt(n), so
        # which of two dependent columns a pivoted QR keeps is a floating-point
        # tie; columns are compared by the variable they were built from.
        def reference(F):
            mu, sd = F.mean(axis=0), F.std(axis=0)
            cols = np.flatnonzero(sd > 1e-12)
            cols = cols[cols > 0]
            D = np.column_stack([np.ones(len(F)), (F[:, cols] - mu[cols]) / sd[cols]])
            R, piv = qr(D, mode="r", pivoting=True)
            diag = np.abs(np.diag(R))
            rank = int((diag > diag[0] * 1e-10).sum())
            sv = np.linalg.svd(R[:rank, :rank], compute_uv=False)
            return np.concatenate([[0], cols])[np.sort(piv[:rank])], sv[0] / sv[-1]

        @example(seed=0, n=400, n_free=2, dups=[], eps_exp=-2.0)         # full rank
        @example(seed=1, n=3000, n_free=1, dups=[(0, 1)], eps_exp=-3.0)  # duplicate
        @given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 3000),
               n_free=st.integers(1, 4),
               dups=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=2),
               eps_exp=st.floats(-14.0, -1.0))
        def check(seed, n, n_free, dups, eps_exp):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=n)
            labels = ["x"] + [f"r{i}" for i in range(n_free)]
            cols = [x] + [rng.normal(size=n) for _ in range(n_free)]
            cols = [c * 10.0 ** rng.uniform(-6, 6) for c in cols]
            for src, at in dups:  # exact copies of a scaled column
                src, at = src % len(cols), at % (len(cols) + 1)
                cols.insert(at, cols[src])
                labels.insert(at, labels[src])
            z = rng.normal(size=n)
            cols.append((x + 10.0 ** eps_exp * z) * 10.0 ** rng.uniform(-6, 6))
            labels.append("x")
            F = np.column_stack([np.ones(n)] + cols)
            labels = ["1"] + labels
            kept_ref, cond = reference(F)
            if cond > features.COND_LIMIT:
                with pytest.raises(IllConditionedBasisError):
                    fit_ridge(F, 1e-8 * n)
            else:
                proj = fit_ridge(F, 1e-8 * n)
                kept = [0] + [i for i in range(1, F.shape[1]) if proj.to_raw[i].any()]
                assert len(kept) == proj.D.shape[1]
                assert (sorted(labels[i] for i in kept)
                        == sorted(labels[i] for i in kept_ref))

        check()

    def test_design_matches_column_by_column_products(self):
        rng = np.random.default_rng(12)
        n = 500
        values = {"x": rng.normal(size=n), "m": np.exp(rng.normal(size=n)),
                  "u": np.tanh(rng.normal(size=n))}
        values["x"][:3] = (0.0, -0.0, 1e-200)
        for fmap in features.FEATURE_MAPS:
            basis = RegressionBasis(fmap, 3)
            F = basis.design(values)
            exps = monomial_exponents(len(basis.variables), 3)
            assert F.shape == (n, len(exps))
            for j, e in enumerate(exps):
                col = np.ones(n)
                for v, p in zip(basis.variables, e):
                    if p:
                        col = col * values[v] ** p
                assert np.array_equal(F[:, j], col), (fmap, e)
                assert np.array_equal(np.signbit(F[:, j]), np.signbit(col)), (fmap, e)


class TestWorstValue:
    def test_perfect_control_zero_value(self, tanh_model, grid50):
        m = replace(tanh_model, k=0.0)
        bundle = p_paths(m, grid50, 400, 2)
        u = np.asarray(m.f.value(bundle.X))
        sol = solve_worst_value(bundle, u, m, RegressionBasis("poly_xu", 2))
        assert sol.y0 == pytest.approx(0.0, abs=1e-12)

    def test_constant_target_exact_value(self, grid50):
        c = 1.3
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", c),
                      x0=0.0, T=1.0, k=0.0)
        bundle = p_paths(m, grid50, 400, 3)
        # u = 0 gives the u columns zero variance, so the fit drops them
        sol = solve_worst_value(bundle, np.zeros_like(bundle.X), m,
                                RegressionBasis("poly_xu", 2))
        assert sol.y0 == pytest.approx(c * c * 1.0, rel=1e-10)

    def test_k0_collapse_to_direct_mc(self, tanh_model, grid50):
        m = replace(tanh_model, k=0.0)
        bundle = p_paths(m, grid50, 2000, 4)
        u = np.zeros_like(bundle.X)
        sol = solve_worst_value(bundle, u, m, RegressionBasis("poly_xu", 3))
        direct = ((np.asarray(m.f.value(bundle.X[:, :-1])) - u[:, :-1]) ** 2
                  ).sum(axis=1) * grid50.dt
        assert abs(sol.y0 - direct.mean()) < 3 * mc_se(direct)

    def test_filter_control_gap_to_time_pattern_family(self, tanh_model, grid50):
        # with the filter as control, the worst adapted drift is genuinely
        # state-dependent, so the sup over piecewise-constant-in-time sign
        # patterns sits a few percent below the backward-solver value; this
        # pins the size of that structural gap
        from ambifilter.minimax import FilterRule
        from ambifilter.oracles import grid_sup_cost, sign_pattern_family
        rule = FilterRule(zero_policy(), n_particles=120, seed=44)
        bundle = p_paths(tanh_model, grid50, 600, 44)
        u = rule.evaluate(tanh_model, grid50, bundle.Y)
        sol = solve_worst_value(bundle, u, tanh_model,
                                RegressionBasis("poly_xu", 3))
        fam = sign_pattern_family(tanh_model.k, 2, tanh_model.T)
        sup = grid_sup_cost(tanh_model, rule, fam, 600, 44, grid50)
        assert sol.y0 >= sup.J_worst - 3 * sup.se_worst  # sup over a subset
        assert abs(sol.y0 - sup.J_worst) / sup.J_worst <= 0.15

    def test_monotone_in_k_fixed_paths(self, tanh_model, grid50):
        bundle = p_paths(tanh_model, grid50, 1500, 5)
        u = np.zeros_like(bundle.X)
        prev = -np.inf
        for k in (0.0, 0.1, 0.25, 0.5):
            sol = solve_worst_value(bundle, u, replace(tanh_model, k=k),
                                    RegressionBasis("poly_xu", 3))
            assert sol.y0 >= prev
            prev = sol.y0

    def test_degree_stability(self, tanh_model, grid50):
        bundle = p_paths(tanh_model, grid50, 2000, 6)
        u = np.zeros_like(bundle.X)
        direct = ((np.asarray(tanh_model.f.value(bundle.X[:, :-1]))) ** 2
                  ).sum(axis=1) * grid50.dt
        y2 = solve_worst_value(bundle, u, tanh_model, RegressionBasis("poly_xu", 2)).y0
        y3 = solve_worst_value(bundle, u, tanh_model, RegressionBasis("poly_xu", 3)).y0
        assert abs(y3 - y2) < 2 * mc_se(direct)

    def test_requires_base_measure(self, tanh_model, grid50):
        bundle = simulate_bundle(tanh_model, zero_policy(), grid50, 400, 8,
                                 measure="Q_tilde")
        with pytest.raises(InvalidArgumentError):
            solve_worst_value(bundle, np.zeros_like(bundle.X), tanh_model)

    def test_rejects_oracle_only_model(self, linear_model, grid50):
        bundle = p_paths(linear_model, grid50, 400, 9)
        with pytest.raises(InvalidArgumentError):
            solve_worst_value(bundle, np.zeros_like(bundle.X), linear_model)


class TestAdjoint:
    def test_constant_target_zero_adjoint(self, grid50):
        c = 0.9
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", c),
                      x0=0.3, T=1.0, k=0.1)
        bundle = simulate_bundle(m, zero_policy(), grid50, 10_000, 10,
                                 measure="Q_tilde")
        u = np.full_like(bundle.X, c)
        adj = solve_adjoint(bundle, u, m, zero_policy(),
                            RegressionBasis("poly_xm", 2), variant="derived")
        assert np.max(np.abs(adj.p_vals)) <= 1e-2
        assert np.max(np.abs(adj.q_vals)) <= 1e-2
        assert np.max(np.abs(adj.P_vals)) <= 1e-2

    def test_zero_sensor_p_is_conditional_cost(self, grid50):
        # h = 0: dp-driver reduces to (f - u)^2 / 2, so
        # E[p_t] = E[int_t^T (f - u)^2 / 2 ds]
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("constant", 0.0), f=make_coef("tanh", 1.0),
                      x0=0.8, T=1.0, k=0.1)
        bundle = simulate_bundle(m, zero_policy(), grid50, 4000, 11,
                                 measure="Q_tilde")
        u = np.zeros_like(bundle.X)
        adj = solve_adjoint(bundle, u, m, zero_policy(),
                            RegressionBasis("poly_xm", 2), variant="derived")
        fvals = np.asarray(m.f.value(bundle.X))
        run = 0.5 * fvals ** 2 * grid50.dt
        for j in (0, 10, 25, 40):
            direct = run[:, j:-1].sum(axis=1).mean()
            assert adj.p_vals[:, j].mean() == pytest.approx(direct, rel=0.05)

    def test_terminal_conditions(self, tanh_model, grid50):
        per, bundle, u = weighted_cost_qtilde(tanh_model, zero_policy(), 500,
                                              100, 12, grid50.n_steps)
        adj = solve_adjoint(bundle, u, tanh_model, zero_policy())
        assert np.all(adj.p_vals[:, -1] == 0.0)
        assert np.all(adj.P_vals[:, -1] == 0.0)

    def test_unknown_variant(self, tanh_model, grid50):
        per, bundle, u = weighted_cost_qtilde(tanh_model, zero_policy(), 300,
                                              60, 13, grid50.n_steps)
        with pytest.raises(InvalidArgumentError):
            solve_adjoint(bundle, u, tanh_model, zero_policy(), variant="eq_x")

    def test_k0_symmetric_point_first_order_condition(self):
        # at x0 = 0 the model is symmetric in theta, so the cost derivative
        # at theta = 0 vanishes; the adjoint integral must sit inside 3 SE
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("tanh", 1.0),
                      x0=0.0, T=1.0, k=0.0)
        per, bundle, u = weighted_cost_qtilde(m, zero_policy(), 1200, 200,
                                              14, 50)
        adj = solve_adjoint(bundle, u, m, zero_policy(), variant="derived")
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = time_table_policy(rng.uniform(-1, 1, size=4), 1.0, radius=np.inf)
            est = gateaux_adjoint(adj, bundle, m, v)
            assert abs(est.J) <= 3 * est.se


class TestGateaux:
    def test_fd_zero_direction(self, tanh_model):
        est = gateaux_fd(tanh_model, constant_policy(0.05), zero_policy(),
                         0.1, 200, 50, 18, n_steps=20)
        assert est.J == 0.0
        # theta +/- eps*0 is theta, so every path's slope is exactly 0
        np.testing.assert_array_equal(est.per_path, np.zeros(200))

    def test_fd_constant_target(self):
        m = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                      h=make_coef("tanh", 1.0), f=make_coef("constant", 2.0),
                      x0=0.3, T=1.0, k=0.25)
        v = constant_policy(0.5, radius=np.inf)
        est = gateaux_fd(m, constant_policy(0.05), v, 0.1, 200, 50,
                         19, n_steps=20)
        assert est.J == pytest.approx(0.0, abs=1e-12)

    def test_fd_needs_table_base_and_direction(self, tanh_model):
        # theta +/- eps*v is built as one time table, so the base must be a
        # one-value table and v a table
        sign = sign_of_regression_policy([FrozenRegression(np.zeros(3))],
                                         RegressionBasis("poly_xm", 1), 0.25, 0.2)
        table = time_table_policy([0.5, -0.5], 1.0, radius=np.inf)
        for base, v in ((sign, table), (constant_policy(0.05), sign),
                        (time_table_policy([0.05, 0.1], 1.0, 0.25), table)):
            with pytest.raises(InvalidArgumentError, match="time table"):
                gateaux_fd(tanh_model, base, v, 0.1, 50, 20, 1, n_steps=5)

    @pytest.mark.parametrize("bad", [0.0, -0.05, float("nan"), float("inf")])
    def test_fd_bad_eps(self, tanh_model, bad):
        v = constant_policy(0.5, radius=np.inf)
        with pytest.raises(InvalidArgumentError, match="eps"):
            gateaux_fd(tanh_model, zero_policy(), v, bad, 50, 20, 1, n_steps=5)

    def test_adjoint_zero_direction(self, tanh_model, grid50):
        per, bundle, u = weighted_cost_qtilde(tanh_model, zero_policy(), 200,
                                              50, 21, grid50.n_steps)
        adj = solve_adjoint(bundle, u, tanh_model, zero_policy(), variant="derived")
        est = gateaux_adjoint(adj, bundle, tanh_model, zero_policy())
        assert est.J == 0.0

    def test_adjoint_linearity(self, tanh_model, grid50):
        per, bundle, u = weighted_cost_qtilde(tanh_model, constant_policy(0.05),
                                              200, 50, 22, grid50.n_steps)
        adj = solve_adjoint(bundle, u, tanh_model, constant_policy(0.05),
                            variant="derived")
        v1 = constant_policy(0.4, radius=np.inf)
        v2 = constant_policy(0.8, radius=np.inf)
        a = gateaux_adjoint(adj, bundle, tanh_model, v1)
        b = gateaux_adjoint(adj, bundle, tanh_model, v2)
        assert b.J == pytest.approx(2.0 * a.J, rel=1e-12)
