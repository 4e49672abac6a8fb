"""Weighted-particle approximation of the unnormalized filter.

The cloud carries log-weights whose log-sum is the unnormalized total mass
rho_t(1); normalizing recovers the conditional law, so every estimate is a
Kallianpur-Striebel ratio that survives resampling. All weight arithmetic is
log-space with max-shift stabilization.

Each particle also carries its own exponential-weight value along its
ancestral line (log_m). It is not used by the filter itself; regression-based
drift policies read it as the M state feature, so only their banks track it.

A bank of independent clouds (one per outer observation path) is the hot path
of the whole package. Everything is vectorized over (cloud, particle) arrays;
randomness comes from per-step numpy substreams so the output at time t never
depends on observations after t.

One loop (`run_clouds`) weights, estimates and resamples for every signal,
which supplies only its mutation: an Euler step for the diffusion bank here,
a transition-matrix draw for the finite-state chain in `oracles`. So the
exact finite-state recursion there checks the step the diffusion filter runs.

A cloud resamples after a step whose effective sample size is below
ESS_THRESHOLD * n_particles: a fixed part of the approximation, set by no caller.

A bank runs in row blocks of at most CLOUD_BLOCK_ELEMENTS particle values
(rows split evenly, at least one per block), so its clouds fit a core's L2
cache at any bank size. A block runs every step, writing its rows of the
full-size output tables, before the next starts. Every cloud operation is
per element or per row, and each block continues step j's normal and
uniform streams where the block before stopped, so the outputs do not
depend on the blocks. The block clouds are allocated once, and each step
writes its values into them, in the float order of the plain expressions,
so outputs keep their bits and no step allocates a cloud. Besides the
positions, log-weights and log M, a diffusion bank holds four scratch
clouds, each holding one value at a time:

    hbuf     M = exp(log M) until theta is evaluated, then b(X) and the drift,
             then h at the new positions until the step ends
    w        the sign rule's Horner value, its sign and sigma(X) theta; then
             (dt / 2) h^2 and the shifted weights exp(logw - max)
    incr     Horner scratch, then sigma(X) and sigma(X) sqrt(dt); then the
             log-weight increment, then reduction scratch
    normals  the step's normal draws and the position increment; then f at
             the new positions when f differs from h

A time table, a constant preset and a constant sigma never fill a cloud: they
stay numbers and broadcast.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, DegenerateCloudError, InvalidArgumentError,
                     ShapeError)
from .model import (ModelSpec, TimeGrid, ROLE_CLOUD_NORMAL, ROLE_CLOUD_UNIFORM,
                    rekey, substream_keys)
from .policies import DriftPolicy

# Resample a cloud after a step whose ESS is below this fraction of its size.
ESS_THRESHOLD = 0.5
# Largest row block of a bank, in particle values: seven block clouds take
# 1.75 MiB, inside a 2 MiB L2. Budgets of 2^14 to 2^16 timed the same on
# 2000 x 500 banks; 2^13 was slower.
CLOUD_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class BankResult:
    """Per-path filter outputs over a bank of observation paths; every field
    has shape (n_paths, n_steps + 1), or (n_steps + 1,) in a `row` view."""

    u: np.ndarray              # estimate of f(X_t)
    pi_h: np.ndarray           # normalized filter applied to h
    ess: np.ndarray
    flags: np.ndarray          # 1 where the cloud was resampled
    log_mass: np.ndarray       # log rho_t(1)

    def row(self, i: int) -> BankResult:
        """Path i's outputs, each of shape (n_steps + 1,)."""
        return BankResult(self.u[i], self.pi_h[i], self.ess[i], self.flags[i],
                          self.log_mass[i])


def systematic_indices(wn: np.ndarray, u0: float) -> np.ndarray:
    """Ancestor indices of systematic resampling: normalized weights wn,
    one uniform offset u0 in [0, 1) shared by all n strata."""
    n = wn.size
    idx = np.searchsorted(np.cumsum(wn), (np.arange(n) + u0) / n, side="right")
    np.clip(idx, 0, n - 1, out=idx)
    return idx


def _reduce_and_resample(pos, logw, logm, w, hv, fv, mx, resample_u, ess_frac, buf):
    """Per-cloud filter estimates plus systematic resampling.

    Inputs per cloud (row): post-mutation positions, absolute log-weights
    with their finite row maximum mx and shifted weights w = exp(logw - mx),
    sensor and target values at the positions; buf is cloud-sized scratch.
    Estimates are taken before any resampling. pos/logw/logm (if tracked) are
    mutated in place; returns (u, pi_h, ess, logmass, flags).
    """
    m, n = pos.shape
    sw = w.sum(axis=1)   # >= 1: the row maximum contributes exp(0)
    logmass = mx + np.log(sw)
    u = np.multiply(w, fv, out=buf).sum(axis=1) / sw
    pih = u if hv is fv else np.multiply(w, hv, out=buf).sum(axis=1) / sw
    ess = sw * sw / np.multiply(w, w, out=buf).sum(axis=1)

    flags = np.zeros(m, dtype=np.uint8)
    logn = np.log(n)
    for r in np.nonzero(ess < ess_frac * n)[0]:
        idx = systematic_indices(w[r] / sw[r], resample_u[r])
        pos[r] = pos[r, idx]
        if logm is not None:
            logm[r] = logm[r, idx]
        logw[r] = logmass[r] - logn
        flags[r] = 1
    return u, pih, ess, logmass, flags


def _check_cloud(n_particles, dt) -> None:
    """Reject a cloud size or step before any cloud is allocated."""
    if not isinstance(n_particles, numbers.Integral) or n_particles < 2:
        raise InvalidArgumentError(f"n_particles must be an integer >= 2, got {n_particles!r}")
    if not 0 < dt < math.inf:   # NaN fails the comparison
        raise InvalidArgumentError(f"dt must be finite and > 0, got {dt!r}")


def _block_rows(m: int, n: int) -> int:
    """Rows per block of an m x n bank: the fewest blocks of at most
    CLOUD_BLOCK_ELEMENTS values, rows split evenly, at least one row."""
    n_blocks = max(1, -(-m * n // CLOUD_BLOCK_ELEMENTS))
    return max(1, -(-m // n_blocks))


def run_clouds(mutate, start, n_particles: int, dY: np.ndarray, dt: float,
               u0: float, pih0: float, stream_keys, track_m: bool = False) -> BankResult:
    """The filter loop shared by every signal: one cloud per row of dY, its
    particles all at `start`, where f and h are u0 and pih0, run in row
    blocks (see the module docstring). Step j of a block calls
    mutate(j, stream, pos, logm, scratch), which moves the block's
    (rows, n_particles) states pos in place and returns h and f at the new
    states and one resampling offset per row. stream(s, j) is a generator at
    the block's place in step j's stream s, keyed by stream_keys[s][j]; the
    mutation draws what it needs from one stream before it asks for the
    next. logm (log M) is None unless track_m. scratch is four block-sized
    float arrays: the loop reuses the first two once the mutation returns,
    and the mutation may return h and f in the other two, which it rewrites
    next step. The loop applies the exact exponential weight update with h
    at the new states, reading dY[:, j] in place, then the fused
    estimate/resample pass; a cloud whose maximum log-weight is not finite
    has no estimate and raises first."""
    _check_cloud(n_particles, dt)
    (m, n_steps), n = dY.shape, n_particles
    rows = _block_rows(m, n)
    clouds = [np.empty((rows, n), dtype=np.asarray(start).dtype)]
    clouds += [np.empty((rows, n)) for _ in range(5 + track_m)]

    u = np.empty((m, n_steps + 1))
    pih = np.empty((m, n_steps + 1))
    ess = np.empty((m, n_steps + 1))
    flags = np.zeros((m, n_steps + 1), dtype=np.uint8)
    log_mass = np.zeros((m, n_steps + 1))
    u[:, 0], pih[:, 0], ess[:, 0] = u0, pih0, n

    # A bank of one block rekeys one generator; with more, each stream and
    # step keeps its own, which the blocks after the first continue.
    one = np.random.Generator(np.random.Philox())
    gens = [[one if rows >= m else np.random.Generator(np.random.Philox())
             for _ in range(n_steps)] for _ in stream_keys]

    def stream(s, j):
        return rekey(gens[s][j], stream_keys[s][j]) if r0 == 0 else gens[s][j]

    # The clouds live as long as the bank: freeing them each step let the
    # allocator fault them in again, 9x the minor page faults on picard.
    for r0 in range(0, m, rows):
        pos, logw, *scratch = (c[:m - r0] for c in clouds)
        logm = scratch.pop() if track_m else None
        incr, w = scratch[:2]
        pos.fill(start)
        logw.fill(-np.log(n))
        if logm is not None:
            logm.fill(0.0)
        dYb = dY[r0:r0 + rows]
        ub, pihb, essb, flagsb, log_massb = (
            t[r0:r0 + rows] for t in (u, pih, ess, flags, log_mass))
        for j in range(n_steps):
            hv, fv, resample_u = mutate(j, stream, pos, logm, scratch)
            # hv dY - ((dt / 2) hv) hv; w is scratch here, and the spent incr
            # in the reductions below
            np.multiply(hv, dYb[:, j, None], out=incr)
            incr -= np.multiply(np.multiply(hv, 0.5 * dt, out=w), hv, out=w)
            logw += incr
            if logm is not None:
                logm += incr
            mx = logw.max(axis=1)
            if not np.all(np.isfinite(mx)):
                raise DegenerateCloudError(
                    "total particle mass underflowed; all log-weights are -inf")
            np.exp(np.subtract(logw, mx[:, None], out=w), out=w)
            (ub[:, j + 1], pihb[:, j + 1], essb[:, j + 1], log_massb[:, j + 1],
             flagsb[:, j + 1]) = _reduce_and_resample(pos, logw, logm, w, hv, fv, mx,
                                                      resample_u, ESS_THRESHOLD, incr)
    return BankResult(u=u, pi_h=pih, ess=ess, flags=flags, log_mass=log_mass)


def run_filter_bank(model: ModelSpec, policy: DriftPolicy, dY: np.ndarray,
                    dt: float, n_particles: int, seed: int,
                    salt: int = 0) -> BankResult:
    """Independent filters over a bank of observation paths.

    dY has shape (n_paths, n_steps). Mutation noise and resampling offsets
    are drawn per step from substreams keyed by (seed, role, salt, step), so
    the output at time t never depends on observations after t. The mutation
    is an Euler step under the theta-perturbed drift, and a cloud resamples
    after a step whose ESS is below ESS_THRESHOLD * n_particles. The bank
    runs in row blocks and writes every step value into a block cloud (see
    the module docstring).
    """
    dY = np.asarray(dY, dtype=float)
    if dY.ndim != 2:
        raise ShapeError("dY must have shape (n_paths, n_steps)")
    if not np.all(np.isfinite(dY)):
        raise DataError("observation increments must be finite")
    _check_cloud(n_particles, dt)
    steps = np.arange(dY.shape[1])
    normal_keys = substream_keys(seed, ROLE_CLOUD_NORMAL, salt, steps).tolist()
    uniform_keys = substream_keys(seed, ROLE_CLOUD_UNIFORM, salt, steps).tolist()
    sqrt_dt = np.sqrt(dt)
    f_is_h = model.f == model.h

    def mutate(j, stream, pos, logm, scratch):
        incr, w, hbuf, normals = scratch
        # M in hbuf; theta in w, with incr as Horner scratch
        theta = policy.evaluate(j * dt, pos,
                                None if logm is None else np.exp(logm, out=hbuf),
                                out=w, scratch=incr)
        sig = model.sigma.value(pos, out=incr)
        # pos += (b + sig theta) dt + (sig sqrt(dt)) normals, in that association
        sig_theta = _into(np.multiply, sig, theta, w)
        drift = _into(np.add, model.b.value(pos, out=hbuf), sig_theta, hbuf)
        drift *= dt
        noise = stream(0, j).standard_normal(out=normals)
        noise *= _into(np.multiply, sig, sqrt_dt, incr)
        noise += drift
        pos += noise
        # f goes to the spent normals, which the next step draws over
        hv = model.h.value(pos, out=hbuf)
        fv = hv if f_is_h else model.f.value(pos, out=normals)
        return hv, fv, stream(1, j).random(len(pos))

    return run_clouds(mutate, float(model.x0), n_particles, dY, dt,
                      float(model.f.value(model.x0)), float(model.h.value(model.x0)),
                      (normal_keys, uniform_keys), track_m=policy.needs_m)


def _into(ufunc, a, b, out):
    """ufunc(a, b), written into out unless a and b are both numbers."""
    return ufunc(a, b, out=out if np.ndim(a) or np.ndim(b) else None)


def run_filter(model: ModelSpec, policy: DriftPolicy, Y: np.ndarray,
               n_particles: int, seed: int) -> BankResult:
    """Filter one observation path on the model grid implied by len(Y);
    every field of the result has shape (n_steps + 1,)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 1 or Y.size < 2:
        raise ShapeError("Y must be a path of at least two grid values")
    n_steps = Y.size - 1
    return run_filter_bank(model, policy, np.diff(Y).reshape(1, n_steps),
                           model.T / n_steps, n_particles, seed).row(0)


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

