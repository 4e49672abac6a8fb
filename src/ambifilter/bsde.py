"""Least-squares Monte Carlo backward solvers.

Two backward systems are solved on simulated forward paths, with conditional
expectations projected on per-step polynomial features:

* the worst-case value y of the running squared error, whose driver picks up
  k|z| from maximizing theta*z over |theta| <= k. The backward recursion is

      z_t ~ E[y_{t+dt} dW / dt | F_t],
      y_t = E[y_{t+dt} | F_t] + (|f(X_t) - u_t|^2 + k |z_t|) dt,   y_T = 0,

  so y_0 estimates the supremum of the cost over the ambiguity class. (The
  +k|z_t| sign follows the sup derivation and makes y_0 nondecreasing in k;
  see the worst-case driver note in the README.)

* the adjoint system (p, q) / (P, Q) of the weighted mean-field control
  problem, solved under the reference measure where the observation is a free
  Brownian motion. The P-driver is implemented in three variants that differ
  in the (p, q) coupling terms; a finite-difference Gateaux check against the
  simulated cost (gateaux_fd: central differences at one eps and eps / 2,
  Richardson-extrapolated, on common random numbers) adjudicates between
  them through the duality identity (gateaux_adjoint). Both report a
  `CostReport`, the package's one Monte Carlo estimate.

Explicit scheme throughout: martingale coefficients are regressed first, the
drivers are then evaluated at the regressed values. Each step factors its
design once and projects every right-hand side on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalError, ShapeError
from .features import FrozenRegression, RegressionBasis, check_basis_size, fit_ridge
from .filtering import run_filter_bank
from .model import (ModelSpec, NoiseBundle, PathBundle, build_time_grid, sample_noise,
                    simulate_bundle)
from .policies import DriftPolicy, time_table_policy

# The duality test (gateaux_fd vs gateaux_adjoint) selects "derived", the
# default and the driver the fixed point uses: the printed main variant is
# dual to the printed variational system but does not reproduce the
# finite-difference derivative of the simulated cost. See the acceptance
# suite, which re-runs the adjudication and records the winner.
ADJOINT_VARIANTS = ("eq_main", "eq_alt", "derived")

# Salt of the nested filter clouds inside cost evaluations: any fixed value
# but 0, the salt of every FilterRule's bank, so their draws stay distinct.
NESTED_FILTER_SALT = 104729
RIDGE_PER_PATH = 1e-8   # every regression step's ridge penalty is this * n_paths


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
    P_tables: tuple[FrozenRegression, ...]   # per step; Picard's sign rule reads them
    basis: RegressionBasis
    p_vals: np.ndarray                       # (n_paths, n_steps + 1) path values
    q_vals: np.ndarray
    P_vals: np.ndarray
    Q_vals: np.ndarray


def _require_h1(model: ModelSpec, what: str) -> None:
    if not model.h1_compliant:
        raise InvalidArgumentError(
            f"{what} requires bounded h and f; a sloped linear or identity "
            "preset is unbounded"
        )


def solve_worst_value(paths: PathBundle, u_vals: np.ndarray, model: ModelSpec,
                      basis: Optional[RegressionBasis] = None) -> BsdeSolution:
    """Backward solve of the worst-case value on base-measure paths.

    `paths` must be simulated under P (unperturbed dynamics, full (W, B)
    noise); `u_vals` is the candidate control evaluated per path and grid
    time (a causal functional of the observation path).
    """
    _require_h1(model, "solve_worst_value")
    if paths.measure_tag != "P":
        raise InvalidArgumentError("worst-case value paths must be simulated under P")
    basis = basis or RegressionBasis(feature_map_id="poly_xu", degree=3)
    grid = paths.grid
    n, steps = paths.X.shape[0], grid.n_steps
    if u_vals.shape != paths.X.shape:
        raise ShapeError("u_vals must align with the path arrays")
    check_basis_size(basis, n)
    lam = RIDGE_PER_PATH * n
    dt = grid.dt
    dW = paths.noise.dW
    k = model.k

    y = np.zeros(n)
    for j in range(steps - 1, -1, -1):
        F = basis.design({"x": paths.X[:, j], "u": u_vals[:, j],
                          "m": paths.M[:, j]})
        proj = fit_ridge(F, lam)
        cont = proj.fit(y).predict(F)
        # center y before the increment regression: same conditional
        # expectation, but the removed level variance would otherwise feed a
        # Jensen bias into y through k|z|
        z = proj.fit((y - cont) * dW[:, j] / dt).predict(F)
        err = model.f.value(paths.X[:, j]) - u_vals[:, j]
        y = cont + (err * err + k * np.abs(z)) * dt
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
                  policy: DriftPolicy, basis: Optional[RegressionBasis] = None,
                  variant: str = "derived") -> AdjointSolution:
    """Backward solve of the adjoint pair on reference-measure paths.

    `paths` must be simulated under Q_tilde (decoupled observation);
    `u_vals` is the conditional-expectation ratio produced by the filter on
    each path. The p-equation driver is h q + (f - u)^2 / 2 in every variant.
    """
    _require_h1(model, "solve_adjoint")
    if paths.measure_tag != "Q_tilde":
        raise InvalidArgumentError("adjoint paths must be simulated under Q_tilde")
    if variant not in ADJOINT_VARIANTS:
        raise InvalidArgumentError(f"unknown adjoint variant {variant!r}; "
                                   f"choose from {ADJOINT_VARIANTS}")
    if u_vals is None:
        raise InvalidArgumentError("u_vals (per-path filter values) are required")
    if u_vals.shape != paths.X.shape:
        raise ShapeError("u_vals must align with the path arrays")
    basis = basis or RegressionBasis(feature_map_id="poly_xm", degree=2)
    grid = paths.grid
    n, steps = paths.X.shape[0], grid.n_steps
    check_basis_size(basis, n)
    lam = RIDGE_PER_PATH * n
    dt = grid.dt
    dW = paths.noise.dW                       # W~ increments under Q_tilde
    dY = np.diff(paths.Y, axis=1)

    p = np.zeros(n)
    P = np.zeros(n)
    P_tabs = [FrozenRegression(np.zeros(basis.n_features))] * (steps + 1)
    p_vals = np.zeros((n, steps + 1))
    q_vals = np.zeros((n, steps + 1))
    P_vals = np.zeros((n, steps + 1))
    Q_vals = np.zeros((n, steps + 1))

    for j in range(steps - 1, -1, -1):
        X, M, u = paths.X[:, j], paths.M[:, j], u_vals[:, j]
        F = basis.design({"x": X, "m": M, "u": u})
        theta = policy.evaluate(grid.times[j], X, M)

        proj = fit_ridge(F, lam)
        p_cont = proj.fit(p).predict(F)
        q = proj.fit((p - p_cont) * dY[:, j] / dt).predict(F)
        hval = model.h.value(X)
        fval = model.f.value(X)
        p = p_cont + (hval * q + 0.5 * (fval - u) ** 2) * dt

        P_cont = proj.fit(P).predict(F)
        Q = proj.fit((P - P_cont) * dW[:, j] / dt).predict(F)
        drv = _adjoint_driver(variant, model.b.deriv(X), model.sigma.deriv(X),
                              model.h.deriv(X), model.f.deriv(X), hval, fval,
                              u, M, theta, P_cont, Q, p, q)
        P = P_cont + drv * dt

        # refit the time-t values so the stored surface includes the driver
        P_tabs[j] = proj.fit(P)
        p_vals[:, j], q_vals[:, j] = p, q
        P_vals[:, j], Q_vals[:, j] = P, Q

    return AdjointSolution(P_tables=tuple(P_tabs), basis=basis,
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
