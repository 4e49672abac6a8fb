"""Weighted-particle approximation of the unnormalized filter.

The cloud carries log-weights whose log-sum is the unnormalized total mass
rho_t(1); normalizing recovers the conditional law, so every estimate is a
Kallianpur-Striebel ratio that survives resampling. All weight arithmetic is
log-space with max-shift stabilization.

Each particle also carries its own exponential-weight value along its
ancestral line (log_m). It is not used by the filter itself; regression-based
drift policies read it as the M state feature.

A bank of independent clouds (one per outer observation path) is the hot path
of the whole package. Everything is vectorized over (cloud, particle) arrays;
randomness comes from per-step numpy substreams so the output at time t never
depends on observations after t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DataError, DegenerateCloudError, InvalidArgumentError,
                     ShapeError)
from .model import (ModelSpec, TimeGrid, ROLE_CLOUD_NORMAL, ROLE_CLOUD_UNIFORM,
                    ROLE_MARKOV, substream)
from .policies import DriftPolicy


@dataclass(frozen=True)
class FilterEstimatePath:
    grid: TimeGrid
    u: np.ndarray              # estimate of f(X_t), one per grid time
    pi_h: np.ndarray           # normalized filter applied to h
    ess: np.ndarray
    resample_flags: np.ndarray
    log_mass: np.ndarray       # log rho_t(1) per grid time


@dataclass(frozen=True)
class BankResult:
    """Per-path filter outputs over a bank of observation paths; every field
    has shape (n_paths, n_steps + 1)."""

    u: np.ndarray
    pi_h: np.ndarray
    ess: np.ndarray
    flags: np.ndarray
    log_mass: np.ndarray


def _check_filter_args(n_particles: int, ess_threshold: float) -> None:
    if n_particles < 2:
        raise InvalidArgumentError("n_particles must be >= 2")
    if not 0.0 <= ess_threshold <= 1.0:
        raise InvalidArgumentError("ess_threshold must be in [0, 1]")


def systematic_indices(wn: np.ndarray, u0: float) -> np.ndarray:
    """Ancestor indices of systematic resampling: normalized weights wn,
    one uniform offset u0 in [0, 1) shared by all n strata."""
    n = wn.size
    idx = np.searchsorted(np.cumsum(wn), (np.arange(n) + u0) / n, side="right")
    np.clip(idx, 0, n - 1, out=idx)
    return idx


def _reduce_and_resample(pos, logw, logm, w, hv, fv, mx, resample_u, ess_frac):
    """Per-cloud filter estimates plus systematic resampling.

    Inputs per cloud (row): post-mutation positions, absolute log-weights
    with their row maximum mx and shifted weights w = exp(logw - mx), sensor
    and target values at the positions. Estimates are taken before any
    resampling; rows whose mass underflowed report -inf mass and are left
    alone. pos/logw/logm are mutated in place; returns
    (u, pi_h, ess, logmass, flags).
    """
    m, n = pos.shape
    finite = np.isfinite(mx)
    sw = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        logmass = np.where(finite, mx + np.log(sw), -np.inf)
        u = np.where(finite, (w * fv).sum(axis=1) / sw, 0.0)
        pih = np.where(finite, (w * hv).sum(axis=1) / sw, 0.0)
        ess = np.where(finite, sw * sw / (w * w).sum(axis=1), 0.0)

    flags = np.zeros(m, dtype=np.uint8)
    logn = np.log(n)
    for r in np.nonzero(finite & (ess < ess_frac * n))[0]:
        idx = systematic_indices(w[r] / sw[r], resample_u[r])
        pos[r] = pos[r, idx]
        logm[r] = logm[r, idx]
        logw[r] = logmass[r] - logn
        flags[r] = 1
    return u, pih, ess, logmass, flags


def _step_arrays(model: ModelSpec, policy: DriftPolicy, pos, logw, logm,
                 t: float, dY, dt: float, normals, unif, ess_frac: float):
    """One filter step over a bank of clouds, arrays mutated in place.

    Euler mutation under the theta-perturbed drift, exact exponential weight
    update with h at the post-mutation position, then the fused
    estimate/resample pass. Returns (u, pi_h, ess, logmass, flags).
    """
    theta = policy.evaluate(t, pos, np.exp(logm) if policy.needs_m else None)
    sig = model.sigma.params[0] if model.sigma.name == "constant" else model.sigma.value(pos)
    bv = model.b.params[0] if model.b.name == "constant" else model.b.value(pos)
    pos += (bv + sig * theta) * dt + (sig * np.sqrt(dt)) * normals
    hv = model.h.value(pos)
    fv = hv if model.f == model.h else model.f.value(pos)
    incr = hv * dY[:, None] - (0.5 * dt) * hv * hv
    logw += incr
    logm += incr

    mx = logw.max(axis=1)
    w = np.exp(logw - np.where(np.isfinite(mx), mx, 0.0)[:, None])
    u, pih, ess, logmass, flags = _reduce_and_resample(
        pos, logw, logm, w, hv, fv, mx, unif, ess_frac)
    if not np.all(np.isfinite(logmass)):
        raise DegenerateCloudError(
            "total particle mass underflowed; all log-weights are -inf"
        )
    return u, pih, ess, logmass, flags


def run_filter_bank(model: ModelSpec, policy: DriftPolicy, dY: np.ndarray,
                    dt: float, n_particles: int, seed: int, salt: int = 0,
                    ess_threshold: float = 0.5) -> BankResult:
    """Independent filters over a bank of observation paths.

    dY has shape (n_paths, n_steps). Mutation noise and resampling offsets
    are drawn per step from substreams keyed by (seed, role, salt, step), so
    the output at time t never depends on observations after t.
    """
    _check_filter_args(n_particles, ess_threshold)
    dY = np.ascontiguousarray(dY, dtype=float)
    if dY.ndim != 2:
        raise ShapeError("dY must have shape (n_paths, n_steps)")
    if not np.all(np.isfinite(dY)):
        raise DataError("observation increments must be finite")
    m, n_steps = dY.shape
    dY_cols = np.ascontiguousarray(dY.T)
    n = n_particles
    pos = np.full((m, n), float(model.x0))
    logw = np.full((m, n), -np.log(n))
    logm = np.zeros((m, n))

    u = np.empty((m, n_steps + 1))
    pih = np.empty((m, n_steps + 1))
    ess = np.empty((m, n_steps + 1))
    flags = np.zeros((m, n_steps + 1), dtype=np.uint8)
    log_mass = np.zeros((m, n_steps + 1))
    u[:, 0] = float(model.f.value(model.x0))
    pih[:, 0] = float(model.h.value(model.x0))
    ess[:, 0] = n

    for j in range(n_steps):
        normals = substream(seed, ROLE_CLOUD_NORMAL, salt, j).standard_normal((m, n))
        unif = substream(seed, ROLE_CLOUD_UNIFORM, salt, j).random(m)
        uj, pj, ej, lmj, fj = _step_arrays(model, policy, pos, logw, logm,
                                           j * dt, dY_cols[j], dt, normals,
                                           unif, ess_threshold)
        u[:, j + 1] = uj
        pih[:, j + 1] = pj
        ess[:, j + 1] = ej
        log_mass[:, j + 1] = lmj
        flags[:, j + 1] = fj
    return BankResult(u=u, pi_h=pih, ess=ess, flags=flags, log_mass=log_mass)


def run_filter(model: ModelSpec, policy: DriftPolicy, Y: np.ndarray,
               n_particles: int, seed: int, salt: int = 0,
               ess_threshold: float = 0.5) -> FilterEstimatePath:
    """Filter one observation path on the model grid implied by len(Y)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 1 or Y.size < 2:
        raise ShapeError("Y must be a path of at least two grid values")
    n_steps = Y.size - 1
    dt = model.T / n_steps
    grid_times = np.linspace(0.0, model.T, n_steps + 1)
    bank = run_filter_bank(
        model, policy, np.diff(Y).reshape(1, n_steps), dt, n_particles, seed,
        salt=salt, ess_threshold=ess_threshold)
    grid = TimeGrid(n_steps=n_steps, dt=dt, times=grid_times)
    return FilterEstimatePath(grid=grid, u=bank.u[0], pi_h=bank.pi_h[0],
                              ess=bank.ess[0],
                              resample_flags=bank.flags[0].astype(bool),
                              log_mass=bank.log_mass[0])


def innovation_path(Y: np.ndarray, pi_h: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """nu_t = Y_t - integral of pi_s(h) ds, left-endpoint rule."""
    Y = np.asarray(Y, dtype=float)
    pi_h = np.asarray(pi_h, dtype=float)
    if Y.shape != pi_h.shape or Y.size != grid.n_steps + 1:
        raise ShapeError("Y, pi_h and grid are not aligned")
    nu = np.empty_like(Y)
    nu[0] = 0.0
    nu[1:] = Y[1:] - Y[0] - np.cumsum(pi_h[:-1]) * grid.dt
    return nu


def run_filter_finite(states: np.ndarray, transition: np.ndarray,
                      h_values: np.ndarray, f_values: np.ndarray,
                      Y: np.ndarray, grid: TimeGrid, n_particles: int,
                      seed: int, x0: float,
                      ess_threshold: float = 0.5) -> FilterEstimatePath:
    """Particle filter for a finite-state signal: mutation samples the
    one-step transition matrix, weights use the same exponential factor as
    the diffusion filter. This is the Monte Carlo counterpart of the exact
    matrix recursion in the oracles module.
    """
    _check_filter_args(n_particles, ess_threshold)
    states = np.asarray(states, dtype=float)
    cum = np.cumsum(np.asarray(transition, dtype=float), axis=1)
    Y = np.asarray(Y, dtype=float)
    if Y.size != grid.n_steps + 1:
        raise ShapeError("Y and grid are not aligned")
    n = n_particles
    start = int(np.argmin(np.abs(states - x0)))
    idx = np.full(n, start, dtype=np.intp)
    logw = np.full(n, -np.log(n))

    u = np.empty(grid.n_steps + 1)
    pih = np.empty(grid.n_steps + 1)
    ess = np.empty(grid.n_steps + 1)
    flags = np.zeros(grid.n_steps + 1, dtype=bool)
    log_mass = np.zeros(grid.n_steps + 1)
    u[0], pih[0], ess[0] = f_values[start], h_values[start], n

    for j in range(grid.n_steps):
        gen = substream(seed, ROLE_MARKOV, 0, j)
        draw = gen.random(n)
        rows = cum[idx]
        idx = (rows <= draw[:, None]).sum(axis=1).astype(np.intp)
        np.clip(idx, 0, states.size - 1, out=idx)
        hv = h_values[idx]
        dY = Y[j + 1] - Y[j]
        logw = logw + hv * dY - 0.5 * hv * hv * grid.dt
        mx = logw.max()
        w = np.exp(logw - mx)
        wn = w / w.sum()
        log_mass[j + 1] = mx + np.log(w.sum())
        u[j + 1] = (wn * f_values[idx]).sum()
        pih[j + 1] = (wn * hv).sum()
        e = 1.0 / (wn * wn).sum()
        ess[j + 1] = e
        if e < ess_threshold * n:
            idx = idx[systematic_indices(wn, gen.random(1)[0])]
            logw = np.full(n, log_mass[j + 1] - np.log(n))
            flags[j + 1] = True
    return FilterEstimatePath(grid=grid, u=u, pi_h=pih, ess=ess,
                              resample_flags=flags, log_mass=log_mass)
