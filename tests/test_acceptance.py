"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantity and its stated tolerance. Run with -s to see the
lines as they complete:

    pytest tests/test_acceptance.py -v -s
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ambifilter.bsde import (CostReport, gateaux_adjoint, gateaux_fd, solve_adjoint,
                             solve_worst_value, weighted_cost_qtilde)
from ambifilter.cli import load_config, run_subcommand
from ambifilter.features import RegressionBasis
from ambifilter.filtering import run_filter_bank
from ambifilter.minimax import (CONTROL_SHIFTS, ConstantRule, FilterRule,
                                PicardConfig, _sign_field, evaluate_cost,
                                picard_solve, minimax_gap, saddle_probes)
from ambifilter.model import (ModelSpec, build_time_grid, sample_noise,
                              simulate_bundle, substream)
from ambifilter.oracles import (LinearGaussianSpec, finite_signal_estimates,
                                finite_signal_filter, grid_sup_cost,
                                kalman_bucy, make_finite_surrogate,
                                particle_filter_on_surrogate,
                                sign_pattern_family, simulate_finite_signal)
from ambifilter.policies import (constant_policy, time_table_policy,
                                 zero_policy)
from ambifilter.presets import make_coef

TANH = ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                 h=make_coef("tanh", 1.0), f=make_coef("tanh", 1.0),
                 x0=0.8, T=1.0, k=0.25)
LINEAR = ModelSpec(b=make_coef("constant", 0.0), sigma=make_coef("constant", 1.0),
                   h=make_coef("identity"), f=make_coef("identity"),
                   x0=0.0, T=1.0, k=0.0)


def criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {detail}"


LADDER_CFG = PicardConfig(n_paths=600, n_particles=200, n_steps=50, seed=99,
                          max_iters=10)


@pytest.fixture(scope="module")
def picard_ladder():
    """Fixed-point runs over the ambiguity ladder, shared by criteria 4 and 7
    and the uniqueness check."""
    return {k: picard_solve(replace(TANH, k=k), LADDER_CFG)
            for k in (0.0, 0.1, 0.25, 0.5)}


def test_criterion_1_classical_reduction():
    t0 = time.monotonic()
    grid = build_time_grid(1.0, 100)
    bundle = simulate_bundle(LINEAR, zero_policy(), grid, 100, 41, measure="P")
    bank = run_filter_bank(LINEAR, zero_policy(), np.diff(bundle.Y, axis=1),
                           grid.dt, 2000, 41, salt=2)
    spec = LinearGaussianSpec(a=0.0, sigma=1.0, c=1.0, x0=0.0, T=1.0)
    means, _ = kalman_bucy(spec, bundle.Y, grid)
    rmse = float(np.sqrt(np.mean((bank.u - means) ** 2)))
    wall = time.monotonic() - t0
    criterion(1, "classical reduction vs Kalman-Bucy",
              rmse <= 0.05 and wall <= 60.0,
              f"RMSE={rmse:.4f} (tol 0.05) over 100 paths, {wall:.1f}s (limit 60)")


def test_criterion_2_density_normalization():
    pol = constant_policy(0.25)
    grid = build_time_grid(1.0, 50)
    t0 = time.monotonic()
    bP = simulate_bundle(TANH, pol, grid, 10_000, 53, measure="P")
    lam = np.exp(bP.log_density[:, -1])
    se_l = lam.std(ddof=1) / 100.0
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    bQt = simulate_bundle(TANH, pol, grid, 10_000, 54, measure="Q_tilde")
    MT = bQt.M[:, -1]
    se_m = MT.std(ddof=1) / 100.0
    t2 = time.monotonic() - t0
    ok = (abs(lam.mean() - 1.0) <= 3 * se_l and abs(MT.mean() - 1.0) <= 3 * se_m
          and t1 <= 10.0 and t2 <= 10.0)
    criterion(2, "density normalization",
              ok,
              f"E_P[Lambda_T]={lam.mean():.4f} (3se {3*se_l:.4f}, {t1:.1f}s), "
              f"E~[M_T]={MT.mean():.4f} (3se {3*se_m:.4f}, {t2:.1f}s)")


def test_change_of_measure_weighted_cost():
    """The paper's reformulation: the filtering cost of the theta-filter
    under Q_theta equals its M-weighted cost under the reference measure,
    J(u, theta) = E~[integral M_t (f(X_t) - u_t)^2 dt]. Picard iterates on
    the right-hand side (`weighted_cost_qtilde`), the saddle rows use the
    left (`evaluate_cost`); the two must agree within 3 combined SE on
    independent samples, at theta = 0 and at a short Picard run's sign rule.

    The sensor is h = tanh(3x): under the acceptance model's tanh(x) the
    filter barely beats the prior, and the weight moves J by about 1 SE, so
    a lost M would pass. Here, over seeds 1-20, z had mean -0.06 / -0.03,
    SD 0.93 / 0.92 and |z| at most 1.90 / 2.04 (theta = 0 / sign rule;
    seed 1: -1.33 / -1.37), while the unweighted cost sat +11 to +18 SE
    above the direct one."""
    model = replace(TANH, h=make_coef("tanh", 3.0))
    n_paths, n_particles, n_steps, seed = 2000, 100, 25, 1
    grid = build_time_grid(model.T, n_steps)
    short = picard_solve(model, PicardConfig(n_paths=300, n_particles=50, n_steps=n_steps,
                                             seed=seed, max_iters=2))
    assert short.final_policy.kind == "sign_of_regression"
    z, details = {}, []
    for name, theta in (("theta = 0", zero_policy()), ("sign rule", short.final_policy)):
        per_path = weighted_cost_qtilde(model, theta, n_paths, n_particles, seed, n_steps)[0]
        weighted = CostReport.of(-2.0 * per_path)
        direct = evaluate_cost(model, FilterRule(theta, n_particles, seed + 1), theta,
                               n_paths, seed + 1, grid)
        z[name] = (weighted.J - direct.J) / np.hypot(weighted.se, direct.se)
        details.append(f"{name}: weighted {weighted.J:.5f} +- {weighted.se:.5f}, direct "
                       f"{direct.J:.5f} +- {direct.se:.5f}, z={z[name]:+.2f}")
    ok = all(abs(v) <= 3.0 for v in z.values())
    detail = f"{'; '.join(details)} (tol 3 combined SE)"
    print(f"[change of measure] weighted cost under Q_tilde vs cost under Q_theta: "
          f"{detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, detail


def test_criterion_3_worst_case_bsde_vs_brute_force():
    t0 = time.monotonic()
    grid = build_time_grid(TANH.T, 50)
    n_paths, seed = 2000, 31
    rule = ConstantRule(0.0)
    bundle = simulate_bundle(TANH, zero_policy(), grid, n_paths, seed, measure="P")
    u = rule.evaluate(TANH, grid, bundle.Y)
    sol = solve_worst_value(bundle, u, TANH, RegressionBasis("poly_xu", 3))
    family = sign_pattern_family(TANH.k, 3, TANH.T)
    sup = grid_sup_cost(TANH, rule, family, n_paths, seed, grid)
    rel = abs(sol.y0 - sup.J_worst) / sup.J_worst
    wall = time.monotonic() - t0
    criterion(3, "worst-case BSDE vs 27-policy brute force",
              rel <= 0.05 and wall <= 180.0,
              f"y0={sol.y0:.5f}, J_grid={sup.J_worst:.5f}+-{sup.se_worst:.5f}, "
              f"rel={100*rel:.2f}% (tol 5%), {wall:.0f}s (limit 180), "
              f"family={len(family)}")


def test_criterion_4_monotone_in_ambiguity(picard_ladder):
    ks = (0.0, 0.1, 0.25, 0.5)
    grid = build_time_grid(TANH.T, 50)
    rule = ConstantRule(0.0)
    bundle = simulate_bundle(TANH, zero_policy(), grid, 2000, 31, measure="P")
    u = rule.evaluate(TANH, grid, bundle.Y)
    y0s = [solve_worst_value(bundle, u, replace(TANH, k=k),
                             RegressionBasis("poly_xu", 3)).y0 for k in ks]
    picard_js = [picard_ladder[k].final_cost.J for k in ks]
    picard_ses = [picard_ladder[k].final_cost.se for k in ks]
    ok_y = all(y0s[i + 1] >= y0s[i] for i in range(3))  # shared paths: exact
    ok_p = all(picard_js[i + 1] >= picard_js[i] - picard_ses[i]
               for i in range(3))
    ok_conv = all(picard_ladder[k].converged for k in ks)
    criterion(4, "monotonicity in the ambiguity radius",
              ok_y and ok_p and ok_conv,
              f"y0 ladder={[f'{v:.4f}' for v in y0s]}, "
              f"picard J ladder={[f'{v:.4f}' for v in picard_js]} "
              f"(1 SE slack, all converged={ok_conv})")


def test_criterion_5_gateaux_duality():
    n_paths, n_particles, n_steps, seed = 1200, 250, 100, 123
    theta0 = constant_policy(0.08, radius=TANH.k)
    rng = np.random.default_rng(5)
    per_variant_pass = {v: 0 for v in ("eq_main", "eq_alt", "derived")}
    per_variant_gap = {v: [] for v in per_variant_pass}
    details = []
    # the base paths and the three adjoints do not depend on the direction
    _, bundle, u = weighted_cost_qtilde(TANH, theta0, n_paths, n_particles,
                                        seed, n_steps)
    adjoints = {variant: solve_adjoint(bundle, u, TANH, theta0,
                                       RegressionBasis("poly_xm", 2), variant=variant)
                for variant in per_variant_pass}
    for d in range(5):
        v = time_table_policy(rng.uniform(-0.6, 0.6, size=4), TANH.T,
                              radius=np.inf)
        # central differences at 0.1 and 0.05, Richardson-extrapolated
        fd = gateaux_fd(TANH, theta0, v, 0.1, n_paths,
                        n_particles, seed, n_steps)
        for variant, adj in adjoints.items():
            ga = gateaux_adjoint(adj, bundle, TANH, v)
            diff = fd.per_path - ga.per_path
            se3 = 3 * diff.std(ddof=1) / np.sqrt(diff.size)
            gap = abs(fd.J - ga.J)
            per_variant_gap[variant].append(gap)
            if gap <= max(0.1 * abs(fd.J), se3):
                per_variant_pass[variant] += 1
        details.append(f"d{d}: fd={fd.J:+.5f}")
    winner = min(per_variant_gap,
                 key=lambda kk: float(np.mean(per_variant_gap[kk])))
    print(f"[criterion  5] adjudication: winner={winner}; "
          f"passes per variant={per_variant_pass}; "
          f"mean |gap| per variant="
          f"{ {k: f'{float(np.mean(g)):.2e}' for k, g in per_variant_gap.items()} }")
    criterion(5, "Gateaux duality (winning adjoint variant)",
              per_variant_pass[winner] == 5 and winner == "derived",
              f"{'; '.join(details)}; winner={winner} passes "
              f"{per_variant_pass[winner]}/5 at max(10%, 3 SE)")


def test_criterion_6_minimax_gap():
    k, T = TANH.k, TANH.T
    policies = [zero_policy(),
                time_table_policy([k], T, k), time_table_policy([-k], T, k),
                time_table_policy([k, -k], T, k), time_table_policy([-k, k], T, k)]
    rules = [FilterRule(p, n_particles=200, seed=7) for p in policies]
    rep = minimax_gap(TANH, rules, policies, 500, 7, n_steps=50)
    se_at = rep.se[rep.argmin_control, rep.argmax_policy]
    hard_ok = rep.sup_min <= rep.min_sup + 3 * se_at
    soft_ok = rep.gap <= 0.10 * rep.min_sup
    print(f"[criterion  6] soft assert gap <= 10% of min_sup: "
          f"gap={rep.gap:.5f} vs {0.1 * rep.min_sup:.5f} "
          f"-> {'PASS' if soft_ok else 'SOFT FAIL (reported)'}")
    criterion(6, "minimax weak duality on 5x5 grids",
              hard_ok,
              f"min_sup={rep.min_sup:.5f}, sup_min={rep.sup_min:.5f}, "
              f"gap={rep.gap:.5f} ({100*rep.gap/rep.min_sup:.1f}% of min_sup)")


# the |y0(u) - J| / se above which a claimed pair (u, theta) with cost J +- se
# is not a saddle. At the ladder's shape, with u's worst value solved on
# theta's own paths, over seeds 99, 7, 11, 1, 2 and 3: z was +0.11 to +0.17
# for the true pair at k = 0.25 and +0.22 to +0.35 at k = 0.5; the false
# claims below gave +3.87 to +5.05 for (u*, 0) and +2.38 to +2.64 for the
# k = 0.1 saddle at k = 0.25, and +8.66 and +7.03 at least at k = 0.5 (see
# CHANGES.md)
SADDLE_Z_TOL = 1.5


def test_criterion_7_saddle_point_probes(picard_ladder):
    """At a saddle theta* is u*'s best response, so u*'s worst value over
    every adapted |theta| <= k equals J(u*, theta*), and no shift of u* costs
    less against theta*. Two false claims show that the certificate can
    fail: u* against theta = 0, and the k = 0.1 saddle claimed at k = 0.25.
    Next to each is what ten random 4-bucket adversaries would have said."""
    rep, cfg = picard_ladder[0.25], LADDER_CFG
    saddle = rep.final_cost
    bad = []
    for d, c in zip(CONTROL_SHIFTS, rep.shift_costs):
        diff = c.per_path - saddle.per_path
        if c.J < saddle.J - 3 * diff.std(ddof=1) / np.sqrt(diff.size):
            bad.append(f"delta_{d:+g}")

    grid = build_time_grid(TANH.T, cfg.n_steps)
    noise = sample_noise(grid, cfg.n_paths, cfg.seed)

    def cost(rule, pol):
        return evaluate_cost(TANH, rule, pol, cfg.n_paths, cfg.seed, grid, noise=noise)

    # role 9 keys no library stream; it keeps these adversaries apart from every path
    gen = substream(cfg.seed, 9)
    adversaries = [time_table_policy(gen.uniform(-TANH.k, TANH.k, size=4), TANH.T,
                                     radius=TANH.k) for _ in range(10)]

    def adversaries_above(rule, claim):
        above = 0
        for pol in adversaries:
            c = cost(rule, pol)
            diff = c.per_path - claim.per_path
            above += c.J > claim.J + 3 * diff.std(ddof=1) / np.sqrt(diff.size)
        return above

    def worst_value(report):
        # saddle_probes on the ladder's own sample and the claimed theta's
        # paths, at the acceptance radius
        rows = saddle_probes(TANH, report)
        assert [r.kind for r in rows[:2]] == ["saddle", "worst_value"]
        return rows[1].J

    y0_star, rep_01 = worst_value(rep), picard_ladder[0.1]
    z_star = (y0_star - saddle.J) / saddle.se
    z_false = {}
    for name, rule, y0, claim in (
            ("(u*, 0)", rep.final_rule, y0_star, cost(rep.final_rule, zero_policy())),
            ("k = 0.1 saddle", rep_01.final_rule, worst_value(rep_01), rep_01.final_cost)):
        z_false[name] = (y0 - claim.J) / claim.se
        print(f"[criterion  7] false claim {name}: J={claim.J:.5f} +- {claim.se:.5f}, "
              f"worst value {y0:.5f}, z={z_false[name]:+.2f} (tol {SADDLE_Z_TOL}); "
              f"random adversaries above 3 SE: {adversaries_above(rule, claim)} of 10")
    rejected = all(abs(z) > SADDLE_Z_TOL for z in z_false.values())
    criterion(7, "saddle-point certificate at the fixed point",
              abs(z_star) <= SADDLE_Z_TOL and not bad and rejected,
              f"J(saddle)={saddle.J:.5f} +- {saddle.se:.5f}, worst value "
              f"{y0_star:.5f}, z={z_star:+.2f} (tol {SADDLE_Z_TOL}); "
              f"4 control shifts, violations={bad or 'none'}; "
              f"false claims rejected: {rejected}")


def test_fixed_point_independent_of_start(picard_ladder):
    """The paper's uniqueness theorem: Picard started from theta = 0 (the
    ladder's run), +k and -k reaches one fixed point. The final costs agree
    within 3 SE and the final sign fields on one common bundle agree."""
    k = TANH.k
    runs = {"0": picard_ladder[k]}
    for name, value in (("+k", k), ("-k", -k)):
        runs[name] = picard_solve(TANH, LADDER_CFG,
                                  initial_policy=constant_policy(value, radius=k))
    grid = build_time_grid(TANH.T, LADDER_CFG.n_steps)
    common = simulate_bundle(TANH, zero_policy(), grid, LADDER_CFG.n_paths,
                             LADDER_CFG.seed, measure="Q_tilde")
    signs = {name: _sign_field(rep.final_policy, common, grid.times)
             for name, rep in runs.items()}
    bad, details = [], []
    for a, b in (("0", "+k"), ("0", "-k"), ("+k", "-k")):
        ca, cb = runs[a].final_cost, runs[b].final_cost
        gap, se3 = abs(ca.J - cb.J), 3 * max(ca.se, cb.se)
        agree = float((signs[a] == signs[b]).mean())
        if gap > se3 or agree < 0.98:
            bad.append(f"{a}/{b}")
        details.append(f"{a}/{b}: |dJ|={gap:.5f} (3 SE {se3:.5f}), "
                       f"sign agreement {agree:.4f}")
    detail = (f"J by start { {n: round(r.final_cost.J, 5) for n, r in runs.items()} }; "
              f"{'; '.join(details)} (want 3 SE and >= 0.98); "
              f"disagreeing={bad or 'none'}")
    print(f"[uniqueness] fixed point independent of the Picard start: {detail} "
          f"-> {'FAIL' if bad else 'PASS'}")
    assert not bad, detail


def test_criterion_8_exact_recursion_equivalence():
    spec = make_finite_surrogate(TANH, 5, TANH.x0 - 1.5, TANH.x0 + 1.5)
    grid = build_time_grid(TANH.T, 100)
    _, Y = simulate_finite_signal(spec, grid, seed=101, x0=TANH.x0)
    masses = finite_signal_filter(spec, Y, grid, x0=TANH.x0)
    u_exact = finite_signal_estimates(spec, masses)
    fp = particle_filter_on_surrogate(spec, Y, grid, 5000, seed=102, x0=TANH.x0)
    err = float(np.mean(np.abs(fp.u - u_exact)))
    criterion(8, "particle filter vs exact finite-state recursion",
              err <= 0.02,
              f"time-averaged |u_particle - u_oracle|={err:.5f} (tol 0.02) "
              f"at N=5000")


def test_criterion_9_innovation_law():
    grid = build_time_grid(1.0, 100)
    bundle = simulate_bundle(TANH, zero_policy(), grid, 200, 17, measure="P")
    bank = run_filter_bank(TANH, zero_policy(), np.diff(bundle.Y, axis=1),
                           grid.dt, 500, 17, salt=1)
    dnu = np.diff(bundle.Y, axis=1) - bank.pi_h[:, :-1] * grid.dt
    qv = (dnu ** 2).sum(axis=1)
    se3 = 3 * dnu.std(ddof=1) / np.sqrt(dnu.size)
    ok = abs(qv.mean() - 1.0) <= 0.10 and abs(dnu.mean()) <= se3
    criterion(9, "innovation law",
              ok,
              f"QV={qv.mean():.4f} (want 1 +- 10%), mean incr={dnu.mean():.2e} "
              f"(3 SE={se3:.2e}) over 200 paths at dt=0.01")


def test_criterion_10_cli_determinism(tmp_path):
    conf = tmp_path / "acc.conf"
    conf.write_text(
        "model.b = tanh(0.2)\nmodel.sigma = constant(0.5)\n"
        "model.h = tanh(1.0)\nmodel.f = tanh(1.0)\n"
        "model.x0 = 0.8\nmodel.k = 0.25\n"
        "grid.n_steps = 20\nmc.n_paths = 120\nmc.n_particles = 64\n"
        "mc.seed = 777\nworst_case.k_grid = 0.0,0.25\n"
        "worst_case.rule_particles = 48\npicard.max_iters = 6\n",
        encoding="utf-8")
    cfg = load_config(conf)
    checked = []
    for cmd in ("simulate", "filter", "worst-case", "picard", "minimax-gap",
                "oracle-check"):
        d1 = tmp_path / f"{cmd}-a"
        d2 = tmp_path / f"{cmd}-b"
        run_subcommand(cmd, cfg, run_dir=d1)
        run_subcommand(cmd, cfg, run_dir=d2)
        for f1 in sorted(d1.glob("*.csv")):
            same = f1.read_bytes() == (d2 / f1.name).read_bytes()
            checked.append((f"{cmd}/{f1.name}", same))
    bad = [name for name, same in checked if not same]
    criterion(10, "CLI determinism",
              not bad,
              f"{len(checked)} CSV bodies compared across reruns of all six "
              f"subcommands; mismatches={bad or 'none'}")
