"""Named coefficient presets for the model functions b, sigma, h, f.

Coefficients live in config files, so they are a registry of named forms with
numeric parameters rather than arbitrary callables:

    constant(c)         -> c
    linear(c0, c1)      -> c0 + c1*x
    tanh(a, b, c, d)    -> a*tanh(b*x + c) + d      (trailing params optional)
    sine(a, b, c, d)    -> a*sin(b*x + c) + d
    identity()          -> x   (alias of linear(0, 1))

Each preset knows its derivative, a sup-norm bound, its exact infimum over R
(which the model checks sigma against), its affine form if it has one, and
whether it satisfies the boundedness requirements needed by the solver
modules. `tanh` and `sine` skip identity parameters and scale fn(...) in place,
with the bits of a*fn(b*x + c) + d. A constant value or
derivative is returned as a number, which broadcasts against any x array, so
callers never ask which preset they hold. Unbounded presets
(linear sensor, identity target) are permitted only for validation against
closed-form references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class CoefPreset:
    """A named scalar function of x with numeric parameters."""

    name: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.params):
            raise InvalidArgumentError(f"{self.name} parameters must be finite: {self.params}")

    def value(self, x, out=None):
        """f(x) on x; a constant preset returns its number, which broadcasts.
        Any other preset writes into `out` when given (an array of x's shape,
        not x itself) and returns it, with the bits of the fresh result."""
        p = self.params
        if self.name == "constant":
            return p[0]
        x = np.asarray(x, dtype=float)
        if self.name == "linear":
            return np.add(p[0], np.multiply(p[1], x, out=out), out=out)
        a, b, c, d = p
        y = x if b == 1.0 else np.multiply(b, x, out=out)
        # x + 0.0 turns -0.0 into +0.0; only a final + (-0.0) would show it
        if c != 0.0 or (d == 0.0 and math.copysign(1.0, d) < 0):
            y = np.add(y, c, out=out)
        y = (np.tanh if self.name == "tanh" else np.sin)(y, out=out)   # never x
        if a != 1.0:
            y *= a
        y += d
        return y

    def deriv(self, x):
        """f'(x) on x; a constant or linear preset's slope is a number."""
        p = self.params
        if self.name == "constant":
            return 0.0
        if self.name == "linear":
            return p[1]
        x = np.asarray(x, dtype=float)
        if self.name == "tanh":
            t = np.tanh(p[1] * x + p[2])
            return p[0] * p[1] * (1.0 - t * t)
        return p[0] * p[1] * np.cos(p[1] * x + p[2])

    @property
    def affine(self) -> tuple[float, float] | None:
        """(intercept, slope) of a constant or linear preset; None otherwise."""
        if self.name == "constant":
            return self.params[0], 0.0
        return self.params if self.name == "linear" else None

    @property
    def bounded(self) -> bool:
        # an affine preset is bounded only with zero slope, as a constant
        return self.affine is None or self.affine[1] == 0.0

    @property
    def sup(self) -> float:
        """Upper bound for sup |f|; infinite for unbounded presets."""
        if self.affine is not None:
            return abs(self.affine[0]) if self.bounded else math.inf
        return abs(self.params[0]) + abs(self.params[3])

    @property
    def inf(self) -> float:
        """Exact infimum over all of R; -inf for a sloped linear preset."""
        p = self.params
        if self.affine is not None:
            return self.affine[0] if self.bounded else -math.inf
        if p[1] == 0.0:  # no dependence on x
            return float(self.value(0.0))
        return p[3] - abs(p[0])


# name -> (fewest, most) parameters
_REGISTRY = {"constant": (1, 1), "linear": (2, 2), "tanh": (1, 4), "sine": (1, 4)}


def make_coef(name: str, *params: float) -> CoefPreset:
    """Build a preset from its registry name and numeric parameters."""
    if name == "identity":
        if params:
            raise InvalidArgumentError("identity takes no parameters")
        return make_coef("linear", 0.0, 1.0)
    if name not in _REGISTRY:
        raise InvalidArgumentError(
            f"unknown coefficient preset {name!r}; known: "
            f"{sorted(_REGISTRY) + ['identity']}"
        )
    lo, hi = _REGISTRY[name]
    if not (lo <= len(params) <= hi):
        raise InvalidArgumentError(
            f"preset {name!r} takes between {lo} and {hi} parameters, got {len(params)}"
        )
    full = list(params)
    if name in ("tanh", "sine"):
        defaults = [1.0, 1.0, 0.0, 0.0]
        full = full + defaults[len(full):]
    return CoefPreset(name=name, params=tuple(float(v) for v in full))
