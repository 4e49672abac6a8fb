"""References for the test suite and acceptance criteria.

Three share no code with the estimators they check: the Kalman-Bucy filter
integrates its own Riccati equation, the finite-state filter is an exact
matrix recursion, and the surrogate chain's generator is a finite-difference
matrix built here from the model's coefficients. Two reuse the estimators on
purpose. `particle_filter_on_surrogate` runs the package's own filter loop
(`filtering.run_clouds`) with the chain's transition matrix as its mutation,
so that the exact recursion checks that loop. `grid_sup_cost`, the
brute-force worst case, maximizes `minimax.evaluate_cost` over a finite
policy family, so it checks the backward solver's worst-case value against
the forward cost, which `evaluate_cost` alone computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, ShapeError
from .bsde import CostReport
from .filtering import BankResult, run_clouds
from .minimax import ControlRule, evaluate_cost
from .model import (ModelSpec, TimeGrid, ROLE_CHAIN, ROLE_MARKOV, sample_noise,
                    substream, substream_keys)
from .policies import DriftPolicy, time_table_policy, zero_policy


@dataclass(frozen=True)
class LinearGaussianSpec:
    """dX = a X dt + sigma dW, dY = c X dt + dB. Validation only; the linear
    sensor and identity target violate the boundedness the solvers assume."""

    a: float
    sigma: float
    c: float
    x0: float
    T: float

    def __post_init__(self):
        if not (np.isfinite([self.a, self.sigma, self.c, self.x0, self.T]).all()
                and self.sigma >= 0 and self.T > 0):
            raise InvalidArgumentError("a, sigma, c, x0 and T must be finite, sigma >= 0 "
                                       "and T > 0")


def _riccati_rhs(spec: LinearGaussianSpec, R: float) -> float:
    return 2.0 * spec.a * R + spec.sigma**2 - spec.c**2 * R * R


def riccati_path(spec: LinearGaussianSpec, grid: TimeGrid,
                 R0: float = 0.0) -> np.ndarray:
    """Classic RK4 on dR/dt = 2aR + sigma^2 - c^2 R^2."""
    R = np.empty(grid.n_steps + 1)
    R[0] = R0
    dt = grid.dt
    for j in range(grid.n_steps):
        r = R[j]
        k1 = _riccati_rhs(spec, r)
        k2 = _riccati_rhs(spec, r + 0.5 * dt * k1)
        k3 = _riccati_rhs(spec, r + 0.5 * dt * k2)
        k4 = _riccati_rhs(spec, r + dt * k3)
        R[j + 1] = r + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return R


def kalman_bucy(spec: LinearGaussianSpec, Y: np.ndarray,
                grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and variance paths for one (or a bank of) observation
    paths, from the known initial state (zero initial variance); the mean has
    the shape of Y. It uses an exponential one-step integrator with the
    mid-step Riccati gain, exact for frozen coefficients within a step."""
    shape = np.shape(Y)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != grid.n_steps + 1:
        raise ShapeError("Y and grid are not aligned")
    R = riccati_path(spec, grid)
    mean = np.empty_like(Y)
    mean[:, 0] = spec.x0
    dt = grid.dt
    for j in range(grid.n_steps):
        Rm = 0.5 * (R[j] + R[j + 1])
        lam = spec.a - spec.c**2 * Rm
        growth = np.exp(lam * dt)
        gain = spec.c * Rm * (growth - 1.0) / (lam * dt) if lam * dt != 0.0 else spec.c * Rm
        mean[:, j + 1] = growth * mean[:, j] + gain * (Y[:, j + 1] - Y[:, j])
    return mean.reshape(shape), R


@dataclass(frozen=True)
class FiniteSignalSpec:
    """Continuous-time chain surrogate: states, generator (rows sum to zero,
    off-diagonal nonnegative) and tabulated sensor/target values."""

    states: np.ndarray
    rate_matrix: np.ndarray
    h_values: np.ndarray
    f_values: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.rate_matrix, dtype=float)
        m = len(self.states)
        if Q.shape != (m, m):
            raise ShapeError("rate matrix must be square over the states")
        if not all(np.isfinite(v).all() for v in (self.states, Q, self.h_values, self.f_values)):
            raise InvalidArgumentError("states, rates, h and f values must be finite")
        off = Q - np.diag(np.diag(Q))
        if np.any(off < -1e-12):
            raise InvalidArgumentError("off-diagonal rates must be >= 0")
        if np.max(np.abs(Q.sum(axis=1))) > 1e-9:
            raise InvalidArgumentError("rate matrix rows must sum to 0")

    @property
    def n_states(self) -> int:
        return len(self.states)


def make_finite_surrogate(model: ModelSpec, n_states: int, x_lo: float,
                          x_hi: float) -> FiniteSignalSpec:
    """Central finite differences of the base-measure generator on a uniform
    state grid with reflecting boundaries; falls back to upwind differencing
    for the drift wherever central rates would go negative."""
    if n_states < 2:
        raise InvalidArgumentError("need at least two states")
    if not -np.inf < x_lo < x_hi < np.inf:
        raise InvalidArgumentError(f"need finite x_lo < x_hi, got [{x_lo}, {x_hi}]")
    xs = np.linspace(x_lo, x_hi, n_states)
    dx = xs[1] - xs[0]
    Q = np.zeros((n_states, n_states))
    # a constant coefficient is a number: give every state its value
    adv, sig, h_vals, f_vals = (np.broadcast_to(c.value(xs), xs.shape).astype(float)
                                for c in (model.b, model.sigma, model.h, model.f))
    dif = 0.5 * sig ** 2
    for i in range(n_states):
        right = dif[i] / dx**2 + adv[i] / (2 * dx)
        left = dif[i] / dx**2 - adv[i] / (2 * dx)
        if right < 0 or left < 0:
            right = dif[i] / dx**2 + max(adv[i], 0.0) / dx
            left = dif[i] / dx**2 + max(-adv[i], 0.0) / dx
        if i + 1 < n_states:
            Q[i, i + 1] = right
        if i - 1 >= 0:
            Q[i, i - 1] = left
        Q[i, i] = -Q[i].sum()
    return FiniteSignalSpec(states=xs, rate_matrix=Q, h_values=h_vals, f_values=f_vals)


def _transition_matrix(spec: FiniteSignalSpec, grid: TimeGrid) -> np.ndarray:
    """exp(Q dt); scipy is loaded only when a finite-state oracle runs."""
    from scipy.linalg import expm

    return expm(spec.rate_matrix * grid.dt)


def finite_signal_filter(spec: FiniteSignalSpec, Y: np.ndarray, grid: TimeGrid,
                         x0: float) -> np.ndarray:
    """Exact unnormalized mass recursion: propagate the mass vector by the
    transpose transition semigroup, then reweight each state by the
    exponential observation factor. Returns (n_steps + 1, n_states)."""
    Y = np.asarray(Y, dtype=float)
    if Y.size != grid.n_steps + 1:
        raise ShapeError("Y and grid are not aligned")
    trans = _transition_matrix(spec, grid)
    masses = np.zeros((grid.n_steps + 1, spec.n_states))
    masses[0, int(np.argmin(np.abs(spec.states - x0)))] = 1.0
    for j in range(grid.n_steps):
        dY = Y[j + 1] - Y[j]
        weights = np.exp(spec.h_values * dY - 0.5 * spec.h_values**2 * grid.dt)
        masses[j + 1] = weights * (trans.T @ masses[j])
    return masses


def finite_signal_estimates(spec: FiniteSignalSpec, masses: np.ndarray) -> np.ndarray:
    """u_t = sum f_j rho_j / sum rho_j from the mass recursion."""
    return masses @ spec.f_values / masses.sum(axis=1)


def simulate_finite_signal(spec: FiniteSignalSpec, grid: TimeGrid, seed: int,
                           x0: float) -> tuple[np.ndarray, np.ndarray]:
    """One chain trajectory (state indices) and a consistent observation path
    dY = h(X) dt + dB."""
    trans_cum = np.cumsum(_transition_matrix(spec, grid), axis=1)
    gen = substream(seed, ROLE_CHAIN)
    idx = np.empty(grid.n_steps + 1, dtype=np.intp)
    idx[0] = int(np.argmin(np.abs(spec.states - x0)))
    Y = np.empty(grid.n_steps + 1)
    Y[0] = 0.0
    root = np.sqrt(grid.dt)
    for j in range(grid.n_steps):
        Y[j + 1] = Y[j] + spec.h_values[idx[j]] * grid.dt + root * gen.standard_normal()
        u = gen.random()
        idx[j + 1] = min(int((trans_cum[idx[j]] <= u).sum()), spec.n_states - 1)
    return idx, Y


def particle_filter_on_surrogate(spec: FiniteSignalSpec, Y: np.ndarray,
                                 grid: TimeGrid, n_particles: int, seed: int,
                                 x0: float) -> BankResult:
    """The diffusion filter's loop run on the chain itself (a transition-matrix
    mutation), so it converges to the exact recursion as particles grow;
    every field of the result has shape (n_steps + 1,)."""
    Y = np.asarray(Y, dtype=float)
    if Y.size != grid.n_steps + 1:
        raise ShapeError("Y and grid are not aligned")
    cum = np.cumsum(_transition_matrix(spec, grid), axis=1)
    start = int(np.argmin(np.abs(spec.states - x0)))
    keys = substream_keys(seed, ROLE_MARKOV, 0, np.arange(grid.n_steps))

    def mutate(j, stream, idx, _logm, _scratch):
        gen = stream(0, j)
        draw = gen.random(n_particles)
        moved = (cum[idx[0]] <= draw[:, None]).sum(axis=1)
        idx[0] = np.minimum(moved, spec.n_states - 1)
        return spec.h_values[idx], spec.f_values[idx], gen.random(1)

    return run_clouds(mutate, start, n_particles, np.diff(Y).reshape(1, grid.n_steps),
                      grid.dt, spec.f_values[start], spec.h_values[start],
                      (keys,)).row(0)


@dataclass(frozen=True)
class GridSupReport:
    J_worst: float
    se_worst: float
    reports: tuple[CostReport, ...]


def sign_pattern_family(k: float, n_buckets: int, horizon: float) -> list[DriftPolicy]:
    """All piecewise-constant-in-time policies over n_buckets equal buckets
    with values in {-k, 0, +k}; the worst-case drift is bang-bang, so sign
    patterns are the natural brute-force family."""
    if n_buckets < 1:
        raise InvalidArgumentError(f"n_buckets must be >= 1, got {n_buckets}")
    if k == 0.0:
        return [zero_policy()]
    vals = [k * lv for lv in (-1.0, 0.0, 1.0)]
    return [time_table_policy(list(pattern), horizon, radius=k)
            for pattern in itertools.product(vals, repeat=n_buckets)]


def grid_sup_cost(model: ModelSpec, u_rule: ControlRule,
                  theta_family: Sequence[DriftPolicy], n_paths: int, seed: int,
                  grid: TimeGrid) -> GridSupReport:
    """Exhaustive worst case over a finite policy family with common random
    numbers: every member is costed on one noise draw."""
    if not theta_family:
        raise InvalidArgumentError("theta_family must be nonempty")
    noise = sample_noise(grid, n_paths, seed)
    reports = [evaluate_cost(model, u_rule, pol, n_paths, seed, grid, noise=noise)
               for pol in theta_family]
    worst = reports[int(np.argmax([r.J for r in reports]))]
    return GridSupReport(J_worst=worst.J, se_worst=worst.se, reports=tuple(reports))
