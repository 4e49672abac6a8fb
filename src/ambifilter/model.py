"""Filtering model with drift ambiguity and the forward Monte Carlo kernel.

The model is

    dX = b(X) dt + sigma(X) dW        X_0 = x0
    dY = h(X) dt + dB                 Y_0 = 0

under the base measure P, with an ambiguity class of measures obtained by
Girsanov drift perturbations |theta| <= k on the W channel. Three simulation
measures are supported:

    P        signal drift b; Y carries the sensor drift; log-density of the
             theta-measure accumulated along the path
    Q        signal drift b + sigma*theta (the perturbed world); Y carries
             the sensor drift
    Q_tilde  reference measure: signal drift b + sigma*theta, but Y is a free
             Brownian motion decoupled from the signal (the backbone for the
             unnormalized filter and the adjoint solver)

The exponential weight M translating between Q and Q_tilde uses the exact
one-step solution exp(h dY - h^2 dt / 2), which keeps M strictly positive
where a naive Euler step would not.

Randomness is counter-based: every path's increments come from a dedicated
Philox substream keyed by (seed, role, path), so a path is reproducible
from its key alone and parallel schedules cannot reorder draws. There is one
key derivation, `substream_keys`, which keys a whole bundle or a filter's
steps at once; `rekey` starts one generator on each key, and `substream` is
the stream of a single key.

`simulate_bundle` draws fresh noise unless it is handed a `NoiseBundle`.
Every estimator that compares costs on common random numbers (Picard,
`grid_sup_cost`, `saddle_probes`, `minimax_gap`, `gateaux_fd`) draws one
bundle with `sample_noise` and passes it down to each simulation it runs.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalError, ShapeError
from .policies import DriftPolicy
from .presets import CoefPreset

ROLE_W = 0
ROLE_B = 1
ROLE_CLOUD_NORMAL = 2
ROLE_CLOUD_UNIFORM = 3
ROLE_MARKOV = 4
ROLE_CHAIN = 5

MEASURES = ("P", "Q", "Q_tilde")
_M32 = 0xFFFFFFFF


def _check_seed(seed) -> int:
    """seed as a Python int; anything but a non-negative integer (numpy
    integer types included) raises `InvalidArgumentError`."""
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")


def _hasher(init: int, mult: int):
    """numpy's seed-sequence `hashmix`, with its running constant."""
    const = init

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    # (0xca01f9dd x - 0x4973f715 y) mod 2^32, with no uint64 wraparound
    r = ((0xCA01F9DD * x & _M32) + (1 << 32) - (0x4973F715 * y & _M32)) & _M32
    return r ^ (r >> 16)


def substream_keys(seed: int, role: int, index, extra=0) -> np.ndarray:
    """The (..., 2) uint64 Philox keys of the (seed, role, index, extra)
    substreams, int64 arrays of index broadcast against arrays of extra:
    numpy's seed-sequence hash (`mix_entropy`, then `generate_state(2,
    np.uint64)`) of entropy seed and spawn key (role, index's two 32-bit
    words, extra), on uint64 word arrays; its constants ignore the words."""
    seed = _check_seed(seed)
    idx, extra = np.asarray(index), np.asarray(extra)
    if idx.dtype.kind not in "iub":
        raise InvalidArgumentError("substream index must be an integer")
    if extra.dtype.kind not in "iub" or np.any((extra < 0) | (extra > _M32)):
        raise InvalidArgumentError("substream extra must be an integer in [0, 2^32)")
    idx = idx.astype(np.int64)
    # the seed's 32-bit words, zero-padded to the pool size, then the key
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [
        operator.index(role), (idx & _M32).astype(np.uint64),
        (idx >> 32 & _M32).astype(np.uint64), extra.astype(np.uint64)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [hashmix(w) for w in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


_ZEROS4 = (0, 0, 0, 0)


def rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """gen (Philox) reset to the start of the stream with this key: two
    uint64 words, fastest as Python ints (a row of `substream_keys(...).tolist()`),
    since the state setter reads them one by one."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def substream(seed: int, role: int, index: int = 0,
              extra: int = 0) -> np.random.Generator:
    """Philox generator at the start of the (seed, role, index, extra) substream."""
    return rekey(np.random.Generator(np.random.Philox()),
                 substream_keys(seed, role, index, extra))


@dataclass(frozen=True)
class TimeGrid:
    n_steps: int
    dt: float
    times: np.ndarray


def build_time_grid(T: float, n_steps: int) -> TimeGrid:
    if not T > 0:
        raise InvalidArgumentError(f"horizon T must be > 0, got {T}")
    if n_steps < 1:
        raise InvalidArgumentError(f"n_steps must be >= 1, got {n_steps}")
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    return TimeGrid(n_steps=int(n_steps), dt=dt, times=times)


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients, initial state, horizon and ambiguity radius."""

    b: CoefPreset
    sigma: CoefPreset
    h: CoefPreset
    f: CoefPreset
    x0: float
    T: float
    k: float

    def __post_init__(self):
        for name in ("x0", "T", "k"):   # one repr per value, for config digests
            object.__setattr__(self, name, float(getattr(self, name)))
        if not np.isfinite(self.x0):
            raise InvalidArgumentError(f"initial state x0 must be finite, got {self.x0}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise InvalidArgumentError(f"horizon T must be finite and > 0, got {self.T}")
        if not (np.isfinite(self.k) and self.k >= 0):
            raise InvalidArgumentError(
                f"ambiguity radius k must be finite and >= 0, got {self.k}")
        # NaN fails the comparison, so it is rejected with the negative values
        if not self.sigma.inf >= 0:
            raise InvalidArgumentError(
                f"sigma(x) must be >= 0 for every real x; its infimum is {self.sigma.inf}")

    @property
    def h1_compliant(self) -> bool:
        """Bounded f and h; every registered preset has a bounded derivative."""
        return self.f.bounded and self.h.bounded

    @property
    def f_sup(self) -> float:
        return self.f.sup


@dataclass(frozen=True)
class NoiseBundle:
    dW: np.ndarray            # (n_paths, n_steps), variance dt per step
    dB: np.ndarray
    seed: int
    dt: float

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def sample_noise(grid: TimeGrid, n_paths: int, seed: int) -> NoiseBundle:
    """Independent Gaussian increments for the W and B channels, one Philox
    substream per (seed, role, path)."""
    if n_paths < 1:
        raise InvalidArgumentError("n_paths must be >= 1")
    seed = _check_seed(seed)
    gen = np.random.Generator(np.random.Philox())
    dW = np.empty((n_paths, grid.n_steps))
    dB = np.empty((n_paths, grid.n_steps))
    for out, role in ((dW, ROLE_W), (dB, ROLE_B)):
        for row, key in zip(out, substream_keys(seed, role, np.arange(n_paths)).tolist()):
            rekey(gen, key).standard_normal(out=row)
        out *= np.sqrt(grid.dt)
    return NoiseBundle(dW=dW, dB=dB, seed=seed, dt=grid.dt)


@dataclass(frozen=True)
class PathBundle:
    grid: TimeGrid
    X: np.ndarray             # (n_paths, n_steps + 1)
    Y: np.ndarray
    M: np.ndarray
    log_density: np.ndarray   # log Lambda_t, Lambda = dQ/dP restricted to F_t
    measure_tag: str
    noise: NoiseBundle = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]


def simulate_bundle(model: ModelSpec, policy: DriftPolicy, grid: TimeGrid,
                    n_paths: int, seed: int, measure: str = "Q_tilde",
                    noise: Optional[NoiseBundle] = None) -> PathBundle:
    """Co-evolve (X, Y, M, log-density) in one pass under the chosen measure.

    This is the forward backbone for every solver: the policy may read the
    weight feature M, so signal and weight advance together. Under Q_tilde
    the decoupling is exploited: Y is generated directly from the B-channel
    noise and M is driven by it. Without `noise`, a fresh bundle is drawn
    with `sample_noise(grid, n_paths, seed)`; callers that compare costs on
    common random numbers draw once and pass the same bundle to every call.
    """
    if measure not in MEASURES:
        raise InvalidArgumentError(f"measure must be one of {MEASURES}")
    if policy.radius > model.k + 1e-12:
        raise InvalidArgumentError(
            f"policy radius {policy.radius} exceeds model ambiguity radius {model.k}"
        )
    if noise is None:
        noise = sample_noise(grid, n_paths, seed)
    elif (noise.n_paths, noise.n_steps, noise.dt, noise.seed) != (
            n_paths, grid.n_steps, grid.dt, seed):
        raise ShapeError("supplied noise does not match (n_paths, grid, seed)")
    n = n_paths
    dt = grid.dt
    X = np.empty((n, grid.n_steps + 1))
    Y = np.empty_like(X)
    M = np.empty_like(X)
    logL = np.zeros_like(X)
    X[:, 0] = model.x0
    Y[:, 0] = 0.0
    M[:, 0] = 1.0
    logm = np.zeros(n)        # log M at the current step
    perturbed = measure in ("Q", "Q_tilde")
    for j in range(grid.n_steps):
        xj = X[:, j]
        theta = policy.evaluate(grid.times[j], xj, M[:, j])
        sig = model.sigma.value(xj)
        hj = model.h.value(xj)
        drift = model.b.value(xj) + (sig * theta if perturbed else 0.0)
        X[:, j + 1] = xj + drift * dt + sig * noise.dW[:, j]
        if measure == "Q_tilde":
            dY = noise.dB[:, j]
        else:
            dY = hj * dt + noise.dB[:, j]
        Y[:, j + 1] = Y[:, j] + dY
        logm = logm + hj * dY - 0.5 * hj * hj * dt
        M[:, j + 1] = np.exp(logm)
        if perturbed:
            # dW = dW~ + theta dt, so log Lambda gains theta dW~ + theta^2 dt / 2
            logL[:, j + 1] = logL[:, j] + theta * noise.dW[:, j] + 0.5 * theta * theta * dt
        else:
            logL[:, j + 1] = logL[:, j] + theta * noise.dW[:, j] - 0.5 * theta * theta * dt
    if not (np.isfinite(X).all() and np.isfinite(Y).all() and np.isfinite(M).all()):
        raise NumericalError("simulated paths are not finite (signal, observation "
                             "or weight overflowed)")
    return PathBundle(grid=grid, X=X, Y=Y, M=M, log_density=logL,
                      measure_tag=measure, noise=noise)
