import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from ambifilter.model import (ROLE_B, ROLE_W, ModelSpec, build_time_grid, rekey,
                              sample_noise, substream_keys)
from ambifilter.presets import make_coef

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tanh_model() -> ModelSpec:
    """Bounded test model: b = 0.2 tanh(x), sigma = 0.5, h = f = tanh(x).
    x0 sits in the curved region so drift perturbations actually matter."""
    return ModelSpec(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                     h=make_coef("tanh", 1.0), f=make_coef("tanh", 1.0),
                     x0=0.8, T=1.0, k=0.25)


@pytest.fixture(scope="session")
def linear_model() -> ModelSpec:
    """Validation-only linear-Gaussian model (a=0, sigma=1, c=1, x0=0)."""
    return ModelSpec(b=make_coef("constant", 0.0), sigma=make_coef("constant", 1.0),
                     h=make_coef("identity"), f=make_coef("identity"),
                     x0=0.0, T=1.0, k=0.0)


@pytest.fixture(scope="session")
def grid50():
    return build_time_grid(1.0, 50)


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocated while fn() ran, over what was
    live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def mc_se(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float).ravel()
    return float(x.std(ddof=1) / np.sqrt(x.size))


def golden_noise():
    """(dW, dB) rows of paths 0, 7, -3 and 2^33 for seed 2024 on a 6-step grid
    of [0, 1]: paths 0 and 7 from `sample_noise`, and -3 and 2^33, which it
    never draws, from `substream_keys` directly. Both golden digests are
    taken over these rows."""
    grid, seed = build_time_grid(1.0, 6), 2024
    nb = sample_noise(grid, 8, seed)
    gen = np.random.Generator(np.random.Philox())
    out = []
    for drawn, role in ((nb.dW, ROLE_W), (nb.dB, ROLE_B)):
        odd = [rekey(gen, key).standard_normal(grid.n_steps) * np.sqrt(grid.dt)
               for key in substream_keys(seed, role, np.array([-3, 2**33]))]
        out.append(np.stack([drawn[0], drawn[7], *odd]))
    return tuple(out)
