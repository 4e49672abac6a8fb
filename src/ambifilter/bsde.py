"""Least-squares Monte Carlo backward solvers.

Two backward systems are solved on simulated forward paths, with conditional
expectations projected on per-step polynomial features:

* the worst-case value y of the running squared error, whose driver picks up
  k|z| from maximizing theta*z over |theta| <= k. The backward recursion is

      z_t ~ E[(y_{t+dt} - E[y_{t+dt} | F_t]) dW / dt | F_t],
      y_t = E[y_{t+dt} | F_t] + (|f(X_t) - u_t|^2 + k|z_t| - theta_t z_t) dt,

  from y_T = 0 on the paths of any Q_theta, W = `noise.dW` being its Brownian
  motion (Girsanov; El Karoui, Peng and Quenez 1997; P is theta = 0), so y_0
  estimates the sup of the cost over the ambiguity class. (The +k|z_t| sign
  follows the sup derivation and makes y_0 nondecreasing in k; see the README.)

* the adjoint system (p, q) / (P, Q) of the weighted mean-field control
  problem, solved under the reference measure where the observation is a free
  Brownian motion. The P-driver is implemented in three variants that differ
  in the (p, q) coupling terms; a finite-difference Gateaux derivative of the
  simulated cost (gateaux_fd) adjudicates between them through the duality
  identity (gateaux_adjoint). Both report a `CostReport`, the package's one
  Monte Carlo estimate.

Explicit scheme throughout (Gobet, Lemor and Warin 2005): each step factors
its design once (`features.fit_ridge`), one centred projection gives the
continuation and the martingale coefficient of y, p and P alike, and the
drivers are then evaluated at the regressed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IllConditionedBasisError, InvalidArgumentError, NumericalError, ShapeError
from .features import RegressionBasis, RidgeProjection, fit_ridge
from .filtering import run_filter_bank
from .model import (ModelSpec, NoiseBundle, PathBundle, build_time_grid, sample_noise,
                    simulate_bundle)
from .policies import DriftPolicy, time_table_policy, zero_policy

# The duality test (gateaux_fd vs gateaux_adjoint) selects "derived", the
# default and the driver the fixed point uses: the printed main variant is
# dual to the printed variational system but does not reproduce the
# finite-difference derivative of the simulated cost. See the acceptance
# suite, which re-runs the adjudication and records the winner.
ADJOINT_VARIANTS = ("eq_main", "eq_alt", "derived")

# Salt of the nested filter clouds inside cost evaluations: any fixed value
# but 0, the salt of every FilterRule's bank, so their draws stay distinct.
NESTED_FILTER_SALT = 104729

# The solvers' default bases: 10 and 6 features, so 100 and 60 paths at least.
WORST_VALUE_BASIS = RegressionBasis("poly_xu", 3)
ADJOINT_BASIS = RegressionBasis("poly_xm", 2)


@dataclass(frozen=True)
class CostReport:
    """A Monte Carlo estimate: the mean J of the per-path values and its
    standard error."""

    J: float
    se: float
    per_path: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, per_path: np.ndarray) -> CostReport:
        n = per_path.size
        se = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
        return cls(J=float(per_path.mean()), se=se, per_path=per_path)


@dataclass(frozen=True)
class BsdeSolution:
    y0: float


@dataclass(frozen=True)
class AdjointSolution:
    P_tables: np.ndarray     # (n_steps + 1, n_features) weights; Picard's sign rule reads them
    basis: RegressionBasis
    p_vals: np.ndarray       # (n_paths, n_steps + 1) path values
    q_vals: np.ndarray
    P_vals: np.ndarray
    Q_vals: np.ndarray


def _check_inputs(solver: str, paths: PathBundle, u_vals: np.ndarray, model: ModelSpec,
                  measures: tuple[str, ...], basis: RegressionBasis) -> None:
    """The input contract of both backward solvers."""
    if not model.h1_compliant:
        raise InvalidArgumentError(f"{solver} requires bounded h and f; a sloped linear "
                                   "or identity preset is unbounded")
    if paths.measure_tag not in measures:
        raise InvalidArgumentError(f"{solver} paths must be simulated under {'/'.join(measures)}")
    if np.shape(u_vals) != paths.X.shape:
        raise ShapeError(f"{solver}: u_vals must align with the path arrays")
    check_path_floor(solver, basis, paths.X.shape[0])


def check_path_floor(solver: str, basis: RegressionBasis, n_paths: int) -> None:
    """Refuse fewer than 10 paths per feature of a backward solver's basis;
    callers that simulate and filter before the solve check this first."""
    if basis.n_features > n_paths / 10:
        raise IllConditionedBasisError(f"{solver}: basis has {basis.n_features} features for "
                                       f"{n_paths} paths; need 10 paths per feature")


def _centred_projection(proj: RidgeProjection, F: np.ndarray, y: np.ndarray,
                        dN: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """E[y | F_t] and E[(y - E[y | F_t]) dN | F_t] / dt on one factored design.
    Centring y leaves the second unchanged in expectation, but the level
    variance it removes would feed a Jensen bias into the worst value's k|z|."""
    cont = proj.fit(y).predict(F)
    return cont, proj.fit((y - cont) * dN / dt).predict(F)


def solve_worst_value(paths: PathBundle, u_vals: np.ndarray, model: ModelSpec,
                      basis: RegressionBasis = WORST_VALUE_BASIS,
                      policy: DriftPolicy = zero_policy()) -> BsdeSolution:
    """Backward solve of the worst-case value on the paths of one member of
    the ambiguity class: `paths` simulated under Q with drift `policy`, or
    under P with the default theta = 0 (Q paths of theta = 0 give the same
    bits). `u_vals` is the candidate control evaluated per path and grid
    time (a causal functional of the observation path).
    """
    _check_inputs("solve_worst_value", paths, u_vals, model, ("P", "Q"), basis)
    if paths.measure_tag == "P" and policy.radius > 0.0:
        raise InvalidArgumentError("solve_worst_value: P paths carry no drift policy")
    grid = paths.grid
    n, steps = paths.X.shape[0], grid.n_steps
    dt = grid.dt

    y = np.zeros(n)
    for j in range(steps - 1, -1, -1):
        F = basis.design({"x": paths.X[:, j], "u": u_vals[:, j],
                          "m": paths.M[:, j]})
        cont, z = _centred_projection(fit_ridge(F), F, y, paths.noise.dW[:, j], dt)
        err = model.f.value(paths.X[:, j]) - u_vals[:, j]
        theta = policy.evaluate(grid.times[j], paths.X[:, j], paths.M[:, j])
        y = cont + (err * err + model.k * np.abs(z) - theta * z) * dt
    if not np.isfinite(y).all():
        raise NumericalError("worst-case value is not finite (the k|z| driver overflowed)")
    return BsdeSolution(y0=float(y.mean()))


def _adjoint_driver(variant: str, bprime, sprime, hprime, fprime, hval, fval,
                    u, M, theta, P_cont, Q, p, q):
    """dP = -driver dt + Q dW~; the three variants differ in the (p, q)
    coupling, which the Gateaux duality check adjudicates."""
    src = fprime * M * (fval - u)
    if variant == "eq_main":
        return (bprime + sprime * theta) * P_cont + sprime * Q \
            - hprime * M * (q + hval * p) + src
    if variant == "eq_alt":
        return (bprime - sprime * theta) * P_cont + sprime * Q \
            - hprime * M * q - hprime * hval * p + src
    return (bprime + sprime * theta) * P_cont + sprime * Q \
        + hprime * M * q + src    # "derived"; solve_adjoint rejects any other


def solve_adjoint(paths: PathBundle, u_vals: np.ndarray, model: ModelSpec,
                  policy: DriftPolicy, basis: RegressionBasis = ADJOINT_BASIS,
                  variant: str = "derived") -> AdjointSolution:
    """Backward solve of the adjoint pair on reference-measure paths.

    `paths` must be simulated under Q_tilde (decoupled observation);
    `u_vals` is the conditional-expectation ratio produced by the filter on
    each path. The p-equation driver is h q + (f - u)^2 / 2 in every variant.
    """
    if variant not in ADJOINT_VARIANTS:
        raise InvalidArgumentError(f"unknown adjoint variant {variant!r}; "
                                   f"choose from {ADJOINT_VARIANTS}")
    _check_inputs("solve_adjoint", paths, u_vals, model, ("Q_tilde",), basis)
    grid = paths.grid
    n, steps = paths.X.shape[0], grid.n_steps
    dt = grid.dt
    dW = paths.noise.dW                       # W~ increments under Q_tilde
    dY = np.diff(paths.Y, axis=1)

    p = np.zeros(n)
    P = np.zeros(n)
    P_tabs = np.zeros((steps + 1, basis.n_features))
    p_vals, q_vals, P_vals, Q_vals = np.zeros((4, n, steps + 1))

    for j in range(steps - 1, -1, -1):
        X, M, u = paths.X[:, j], paths.M[:, j], u_vals[:, j]
        F = basis.design({"x": X, "m": M, "u": u})
        theta = policy.evaluate(grid.times[j], X, M)

        proj = fit_ridge(F)
        p_cont, q = _centred_projection(proj, F, p, dY[:, j], dt)
        hval = model.h.value(X)
        fval = model.f.value(X)
        p = p_cont + (hval * q + 0.5 * (fval - u) ** 2) * dt

        P_cont, Q = _centred_projection(proj, F, P, dW[:, j], dt)
        drv = _adjoint_driver(variant, model.b.deriv(X), model.sigma.deriv(X),
                              model.h.deriv(X), model.f.deriv(X), hval, fval,
                              u, M, theta, P_cont, Q, p, q)
        P = P_cont + drv * dt

        # refit the time-t values so the stored surface includes the driver
        P_tabs[j] = proj.fit(P).w
        p_vals[:, j], q_vals[:, j] = p, q
        P_vals[:, j], Q_vals[:, j] = P, Q

    return AdjointSolution(P_tables=P_tabs, basis=basis,
                           p_vals=p_vals, q_vals=q_vals, P_vals=P_vals,
                           Q_vals=Q_vals)


def weighted_cost_qtilde(model: ModelSpec, policy: DriftPolicy, n_paths: int,
                         n_particles: int, seed: int, n_steps: int,
                         noise: Optional[NoiseBundle] = None
                         ) -> tuple[np.ndarray, PathBundle, np.ndarray]:
    """Per-path weighted mean-field cost under the reference measure:

        j_i = -(1/2) * sum_t (f(X_t) - u_t)^2 M_t dt

    where u is the nested-filter conditional-expectation ratio along the
    path's own observation. Returns (per-path values, bundle, u). `noise`, if
    given, drives the paths (see `simulate_bundle`)."""
    grid = build_time_grid(model.T, n_steps)
    bundle = simulate_bundle(model, policy, grid, n_paths, seed, measure="Q_tilde",
                             noise=noise)
    u = run_filter_bank(model, policy, np.diff(bundle.Y, axis=1), grid.dt,
                        n_particles, seed, salt=NESTED_FILTER_SALT).u
    err = model.f.value(bundle.X[:, :-1]) - u[:, :-1]
    per_path = -0.5 * (err * err * bundle.M[:, :-1]).sum(axis=1) * grid.dt
    return per_path, bundle, u


def gateaux_fd(model: ModelSpec, policy: DriftPolicy, v: DriftPolicy,
               eps: float, n_paths: int, n_particles: int,
               seed: int, n_steps: int = 50) -> CostReport:
    """Finite-difference derivative of the weighted mean-field cost in the
    direction v at the given policy: central differences at eps and eps / 2
    on common random numbers, Richardson-extrapolated to cancel their eps^2
    error. theta is a one-value time table and v a time table, so theta + s*v
    is one time table on v's buckets, clipped to k. The caller keeps it inside
    the radius; at the clamp it measures the clamped perturbation instead."""
    if not 0.0 < eps < np.inf:
        raise InvalidArgumentError(f"eps must be finite and > 0, got {eps}")
    if not (policy.kind == v.kind == "piecewise_table"
            and policy.payload["values"].size == 1):
        raise InvalidArgumentError("gateaux_fd needs a one-value time table "
                                   "base and a time-table direction")
    base = policy.payload["values"][0]
    vals, horizon = v.payload["values"], v.payload["horizon"]
    noise = sample_noise(build_time_grid(model.T, n_steps), n_paths, seed)
    e0, e1 = eps, eps / 2
    slopes = []
    for e in (e0, e1):
        jp, jm = (weighted_cost_qtilde(
            model, time_table_policy(base + s * vals, horizon, radius=model.k),
            n_paths, n_particles, seed, n_steps, noise=noise)[0] for s in (e, -e))
        slopes.append((jp - jm) / (2.0 * e))
    w = e0 * e0 / (e0 * e0 - e1 * e1)
    return CostReport.of(w * slopes[1] + (1.0 - w) * slopes[0])


def gateaux_adjoint(adjoint: AdjointSolution, paths: PathBundle,
                    model: ModelSpec, v: DriftPolicy) -> CostReport:
    """Adjoint representation of the same derivative: with zero terminal
    adjoints the duality identity gives

        dJ/deps = - E~[ integral sigma(X_t) P_t v_t dt ].
    """
    grid = paths.grid
    if adjoint.P_vals.shape != paths.X.shape:
        raise ShapeError("adjoint was solved on a different path set")
    n, steps = paths.X.shape[0], grid.n_steps
    acc = np.zeros(n)
    for j in range(steps):
        X, M = paths.X[:, j], paths.M[:, j]
        vv = v.evaluate(grid.times[j], X, M)
        acc -= model.sigma.value(X) * adjoint.P_vals[:, j] * vv * grid.dt
    return CostReport.of(acc)
