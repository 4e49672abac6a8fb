"""Saddle-point machinery: cost evaluation under any (control, measure) pair,
the control clamp, the fixed-point iteration on theta = k sgn(P), and
minimax-gap estimation over finite control/policy grids.

Control rules are causal functionals of the observation path alone. A filter
rule carries the drift policy its internal model assumes, its particle count
and its seed; evaluating it against a different adversary policy is exactly
the robustness experiment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bsde import (ADJOINT_BASIS, CostReport, check_path_floor, solve_adjoint,
                   solve_worst_value, weighted_cost_qtilde)
from .errors import InvalidArgumentError, ShapeError
from .filtering import run_filter_bank
from .model import (ModelSpec, NoiseBundle, PathBundle, TimeGrid, build_time_grid,
                    sample_noise, simulate_bundle)
from .policies import DriftPolicy, sign_of_regression_policy, zero_policy


# the saddle check's shifts of u*, costed against theta*
CONTROL_SHIFTS = (0.05, -0.05, 0.1, -0.1)


def clamp_control(u_values: np.ndarray, f_sup: float) -> np.ndarray:
    """Clip the control into [-f_sup, f_sup]; never increases |f(X) - u|."""
    if f_sup < 0:
        raise InvalidArgumentError("f_sup must be >= 0")
    return np.clip(np.asarray(u_values, dtype=float), -f_sup, f_sup)


class ControlRule:
    """Causal control rule: observation paths -> control paths."""

    def evaluate(self, model: ModelSpec, grid: TimeGrid, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantRule(ControlRule):
    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, model, grid, Y):
        return np.full_like(np.atleast_2d(Y), self.value)


class FilterRule(ControlRule):
    """The particle-filter estimate of f(X_t) under an assumed drift policy.
    Resampling is fixed in `filtering`, so policy and particle count identify it."""

    def __init__(self, policy: DriftPolicy, n_particles: int, seed: int):
        self.policy = policy
        self.n_particles = n_particles
        self.seed = seed

    def evaluate(self, model, grid, Y):
        Y = np.atleast_2d(Y)
        return run_filter_bank(
            model, self.policy, np.diff(Y, axis=1), grid.dt, self.n_particles,
            self.seed).u

    def digest(self) -> str:   # the assumed policy and the particle count
        return f"filter({self.policy.digest()},n={self.n_particles})"


def evaluate_cost(model: ModelSpec, u_rule: ControlRule, theta: DriftPolicy,
                  n_paths: int, seed: int, grid: TimeGrid,
                  noise: Optional[NoiseBundle] = None) -> CostReport:
    """J(u, Q_theta) = E under the theta-perturbed measure of the integrated
    squared error, by direct simulation. Deterministic given the seed;
    `noise`, if given, drives the paths (see `simulate_bundle`)."""
    bundle = simulate_bundle(model, theta, grid, n_paths, seed, measure="Q", noise=noise)
    return _cost_report(model, bundle, u_rule.evaluate(model, grid, bundle.Y))


def _cost_report(model: ModelSpec, bundle: PathBundle, u: np.ndarray) -> CostReport:
    """Integrated squared error of the control u along each path of the bundle."""
    if u.shape != bundle.X.shape:
        raise ShapeError("control rule returned misaligned paths")
    err = model.f.value(bundle.X[:, :-1]) - u[:, :-1]
    return CostReport.of((err * err).sum(axis=1) * bundle.grid.dt)


@dataclass(frozen=True)
class PicardConfig:
    n_paths: int = 2000
    n_particles: int = 500
    n_steps: int = 50
    seed: int = 0
    max_iters: int = 20
    tol: float = 0.02            # sign-agreement tolerance
    # read by nothing; kept only because the benchmark's picard workload
    # still passes it, and deleted once that workload stops
    mixture_prune: float = 0.02

    def __post_init__(self):
        for name, lo in (("n_paths", 2), ("n_particles", 2),   # an SE needs two paths
                         ("n_steps", 1), ("max_iters", 1)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < lo:
                raise InvalidArgumentError(f"{name} must be an integer >= {lo}, got {v!r}")
        if not 0.0 <= self.tol <= 1.0:
            raise InvalidArgumentError("tol must be in [0, 1]")


@dataclass(frozen=True)
class PicardIteration:
    index: int
    J: float
    sign_agreement: float


@dataclass(frozen=True)
class PicardReport:
    iterations: tuple[PicardIteration, ...]
    converged: bool
    final_policy: DriftPolicy
    final_rule: FilterRule
    final_cost: CostReport               # J(u*, theta*) on the run's own sample
    shift_costs: tuple[CostReport, ...]  # J(clip(u* + d), theta*), d in CONTROL_SHIFTS
    config: PicardConfig                 # names that sample


def _sign_field(policy: DriftPolicy, bundle, times: np.ndarray) -> np.ndarray:
    out = np.empty_like(bundle.X)
    for j, t in enumerate(times):
        out[:, j] = np.sign(policy.evaluate(t, bundle.X[:, j], bundle.M[:, j]))
    return out


def _picard_step(model: ModelSpec, config: PicardConfig, grid: TimeGrid,
                 noise: NoiseBundle, theta: DriftPolicy) -> tuple[float, DriftPolicy, float]:
    """One Picard iteration from theta: its cost J, its target k sgn(P_hat)
    and the sign agreement of theta with the target. The iterate's bundle,
    filter output, adjoint and sign fields are locals, freed on return, so
    a run holds one iterate at a time."""
    per_path, bundle, u = weighted_cost_qtilde(
        model, theta, config.n_paths, config.n_particles, config.seed,
        config.n_steps, noise=noise)
    adjoint = solve_adjoint(bundle, u, model, theta)
    target = sign_of_regression_policy(adjoint.P_tables, adjoint.basis, model.k, grid.dt)
    s_new = _sign_field(target, bundle, grid.times)
    s_prev = _sign_field(theta, bundle, grid.times)
    return float(-2.0 * per_path.mean()), target, float((s_new == s_prev).mean())


def picard_solve(model: ModelSpec, config: PicardConfig,
                 initial_policy: Optional[DriftPolicy] = None) -> PicardReport:
    """Alternate simulate -> filter -> adjoint -> sign update until the sign
    field of theta stabilizes, starting from initial_policy (theta = 0 by
    default; ignored at k = 0, where theta = 0 is the only policy, hence the
    fixed point: nothing is iterated and one iteration reports the final cost).

    Convergence is declared when the sign-agreement fraction stays above
    1 - tol on two consecutive iterations; the cost is reported, not tested.
    Each iterate is the previous iteration's target k sgn(P_hat), and the
    agreement compares the signs of the iterate and of its target. The run
    returns the last target, converged or not: a run that cycles ends at
    max_iters (reported, not raised). All iterations and the final pass share
    one noise draw. The final pass simulates theta*'s Q paths once and costs
    u* and its clamped CONTROL_SHIFTS on them. At k > 0 a path count below
    the adjoint's floor (`bsde.check_path_floor`) is refused before any bank.
    """
    k = model.k
    n_iters = config.max_iters if k > 0.0 else 0
    if n_iters:
        check_path_floor("solve_adjoint", ADJOINT_BASIS, config.n_paths)
    grid = build_time_grid(model.T, config.n_steps)
    noise = sample_noise(grid, config.n_paths, config.seed)

    theta = initial_policy if initial_policy is not None and n_iters else zero_policy()
    iters: list[PicardIteration] = []
    converged = n_iters == 0
    prev_agree = -1.0

    for it in range(1, n_iters + 1):
        J_it, target, agree = _picard_step(model, config, grid, noise, theta)
        iters.append(PicardIteration(it, J_it, agree))
        theta = target
        if agree >= 1.0 - config.tol and prev_agree >= 1.0 - config.tol:
            converged = True
            break
        prev_agree = agree

    rule = FilterRule(theta, config.n_particles, config.seed)
    bundle = simulate_bundle(model, theta, grid, config.n_paths, config.seed,
                             measure="Q", noise=noise)
    u_star = rule.evaluate(model, grid, bundle.Y)
    cost = _cost_report(model, bundle, u_star)
    shifts = tuple(_cost_report(model, bundle, clamp_control(u_star + d, model.f_sup))
                   for d in CONTROL_SHIFTS)
    if n_iters == 0:
        iters.append(PicardIteration(1, cost.J, 1.0))
    return PicardReport(iterations=tuple(iters), converged=converged,
                        final_policy=theta, final_rule=rule, final_cost=cost,
                        shift_costs=shifts, config=config)


@dataclass(frozen=True)
class MinimaxReport:
    J: np.ndarray                # (n_controls, n_policies)
    se: np.ndarray
    min_sup: float
    sup_min: float
    gap: float
    argmin_control: int
    argmax_policy: int


def minimax_gap(model: ModelSpec, control_grid: Sequence[ControlRule],
                theta_grid: Sequence[DriftPolicy], n_paths: int, seed: int,
                n_steps: int = 50) -> MinimaxReport:
    """min over controls of the max over policies, and the reverse, on one
    common-random-number cost matrix. On any single matrix
    min-of-row-maxima >= max-of-column-minima holds exactly. Each policy's
    paths are simulated once and every control is costed on them."""
    if not control_grid or not theta_grid:
        raise InvalidArgumentError("both grids must be nonempty")
    grid = build_time_grid(model.T, n_steps)
    noise = sample_noise(grid, n_paths, seed)
    J = np.empty((len(control_grid), len(theta_grid)))
    se = np.empty_like(J)
    for j, pol in enumerate(theta_grid):
        bundle = simulate_bundle(model, pol, grid, n_paths, seed, measure="Q", noise=noise)
        for i, rule in enumerate(control_grid):
            rep = _cost_report(model, bundle, rule.evaluate(model, grid, bundle.Y))
            J[i, j], se[i, j] = rep.J, rep.se
    row_sup = J.max(axis=1)
    col_min = J.min(axis=0)
    i_star = int(np.argmin(row_sup))
    j_star = int(np.argmax(col_min))
    min_sup = float(row_sup[i_star])
    sup_min = float(col_min[j_star])
    return MinimaxReport(J=J, se=se, min_sup=min_sup, sup_min=sup_min,
                         gap=min_sup - sup_min, argmin_control=i_star,
                         argmax_policy=j_star)


@dataclass(frozen=True)
class SaddleProbe:
    """One saddle.csv row: a cost and the standard error it is judged in."""
    kind: str                    # "saddle", "worst_value" or "control_shift"
    probe_id: str
    J: float
    se: float


def saddle_probes(model: ModelSpec, report: PicardReport) -> list[SaddleProbe]:
    """The saddle check around the computed pair (u*, theta*): the saddle
    row J(u*, theta*), u*'s worst value, then the report's clamped constant
    shifts of u* against theta*.

    At a saddle theta* is u*'s best response, so the sup of J(u*, theta)
    over every adapted |theta| <= k equals J(u*, theta*). The `worst_value`
    row estimates that sup with `solve_worst_value` on P paths driven by the
    Picard run's own noise, with u* evaluated on them; its se is J*'s, the
    unit its gap to the saddle row is judged in. The solve's default basis
    has 10 features, so it needs 100 paths. At k = 0 the class has one
    member, theta = 0, and there is no worst-value row.
    """
    star = report.final_cost
    out = [SaddleProbe("saddle", "ustar_thetastar", star.J, star.se)]
    if model.k > 0.0:
        cfg = report.config
        grid = build_time_grid(model.T, cfg.n_steps)
        paths = simulate_bundle(model, zero_policy(), grid, cfg.n_paths, cfg.seed,
                                measure="P", noise=sample_noise(grid, cfg.n_paths, cfg.seed))
        u_star = report.final_rule.evaluate(model, grid, paths.Y)
        out.append(SaddleProbe("worst_value", "ustar",
                               solve_worst_value(paths, u_star, model).y0, star.se))
    out += [SaddleProbe("control_shift", f"delta_{d:+g}", c.J, c.se)
            for d, c in zip(CONTROL_SHIFTS, report.shift_costs)]
    return out
