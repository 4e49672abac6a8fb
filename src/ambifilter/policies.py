"""Drift perturbation policies: feedback rules (t, state) -> theta in [-k, k].

Kinds:
    piecewise_table      theta from a table over equal time buckets; the
                         zero and constant policies are one-bucket tables
                         over an infinite horizon
    sign_of_regression   theta = k * sgn(P_hat(t, X, M)) from one weight
                         table of the adjoint surface: row j holds the
                         monomial weights of grid time j; P_hat is
                         evaluated by Horner, with no design matrix, on a
                         coefficient grid built once per policy

A policy is in [-radius, radius] as built: a time table stores its values
clipped, and a sign rule is k sgn(P_hat) with radius k and sgn(0) = 0 (values
exactly {-k, 0, +k}), so `evaluate(t, x, m)` clips nothing. A time table does
not read the state and returns one float that callers broadcast over the
cloud. `needs_m` says whether the weight feature M must be supplied.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, MissingFeatureError
from .features import RegressionBasis, monomial_exponents

POLICY_KINDS = ("piecewise_table", "sign_of_regression")


@dataclass(frozen=True)
class DriftPolicy:
    kind: str
    payload: dict = field(default_factory=dict)
    radius: float = 0.0  # bound on the values; math.inf for unconstrained directions

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidArgumentError(f"unknown policy kind {self.kind!r}")
        # the digest writes repr(radius): 1, 1.0 and np.float64(1.0) must agree
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius >= 0:
            raise InvalidArgumentError("policy radius must be >= 0")

    @property
    def needs_m(self) -> bool:
        return self.kind == "sign_of_regression" and "m" in self.payload["basis"].variables

    def evaluate(self, t: float, x: np.ndarray, m: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None, scratch: Optional[np.ndarray] = None):
        """Policy value in [-radius, radius] at time t on arrays of X (and M
        when `needs_m`); a float when the policy does not read the state. A
        sign rule writes into `out` and uses `scratch`, arrays of x's shape
        distinct from x, m and each other, when they are given."""
        if m is None and self.needs_m:
            raise MissingFeatureError(
                f"policy kind {self.kind!r} needs the weight feature m; "
                "simulate the weight process alongside the signal to supply it"
            )
        p = self.payload
        if self.kind == "piecewise_table":
            vals = p["values"]
            return vals[min(max(int(t / p["horizon"] * vals.size), 0), vals.size - 1)]
        j = min(max(int(round(t / p["dt"])), 0), len(p["tables"]) - 1)
        p_hat = _horner_xm(self._horner_grid[j], x, m, out, scratch)
        return np.multiply(p["k"], np.sign(p_hat, out=p_hat), out=p_hat)

    @cached_property
    def _horner_grid(self) -> np.ndarray:
        """A sign rule's weights as one (n_times, d + 1, d + 1) grid, built on
        first use: [j, a, b] weighs x**a m**b at grid time j. It lives outside
        the payload, so the digest does not see it."""
        tables, degree = self.payload["tables"], self.payload["basis"].degree
        c = np.zeros((len(tables), degree + 1, degree + 1))
        a, b = np.array(monomial_exponents(2, degree)).T
        c[:, a, b] = tables
        return c

    def digest(self) -> str:
        return hashlib.sha256(self._canonical().encode()).hexdigest()[:16]

    def _canonical(self) -> str:
        def enc(obj):
            if isinstance(obj, DriftPolicy):
                return {"kind": obj.kind, "radius": repr(obj.radius),
                        "payload": enc(obj.payload)}
            if isinstance(obj, dict):
                return {k: enc(v) for k, v in sorted(obj.items())}
            if isinstance(obj, np.ndarray):   # a table is one list per row
                return [enc(v) for v in obj]
            if isinstance(obj, RegressionBasis):
                return [obj.feature_map_id, obj.degree]
            if isinstance(obj, float):   # np.float64 too
                return repr(float(obj))
            return obj

        return json.dumps(enc(self), sort_keys=True)


def _horner_xm(c: np.ndarray, x, m, out=None, q=None) -> np.ndarray:
    """design(x, m) @ weights by nested Horner on the weights' grid c, where
    c[a, b] weighs x**a m**b: x outer and m inner, no design matrix and no
    BLAS call, and the same value up to rounding. The value goes to `out` and
    q is scratch; either is allocated when not given."""
    degree = c.shape[0] - 1
    out = np.empty(np.shape(x)) if out is None else out
    q = np.empty_like(out) if q is None else q
    out.fill(c[degree, 0])
    for i in range(degree - 1, -1, -1):
        out *= x
        np.multiply(m, c[i, degree - i], out=q)   # q = sum_j c[i, j] m**j
        for j in range(degree - i - 1, 0, -1):
            q += c[i, j]
            q *= m
        q += c[i, 0]
        out += q
    return out


def time_table_policy(values: Sequence[float], horizon: float,
                      radius: float) -> DriftPolicy:
    """Piecewise-constant-in-time policy over equal buckets of [0, horizon];
    the values are stored clipped to [-radius, radius]."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise InvalidArgumentError("time table needs at least one value")
    if not np.isfinite(vals).all():
        raise InvalidArgumentError("time table values must be finite")
    if not horizon > 0:
        raise InvalidArgumentError("time table horizon must be > 0")
    return DriftPolicy(kind="piecewise_table",
                       payload={"horizon": float(horizon),
                                "values": np.clip(vals, -radius, radius)},
                       radius=radius)


def zero_policy() -> DriftPolicy:
    return time_table_policy([0.0], math.inf, 0.0)


def constant_policy(value: float, radius: Optional[float] = None) -> DriftPolicy:
    return time_table_policy([value], math.inf, abs(value) if radius is None else radius)


def sign_of_regression_policy(tables: np.ndarray, basis: RegressionBasis,
                              k: float, dt: float) -> DriftPolicy:
    """k sgn(P_hat), where P_hat at grid time j is basis.design(x, m) @ tables[j]."""
    if "u" in basis.variables:
        raise InvalidArgumentError(
            f"feature map {basis.feature_map_id!r} reads the control u; a drift "
            "policy may only read X and M")
    tables = np.asarray(tables, dtype=float)
    if not tables.size or tables.shape[1:] != (basis.n_features,):
        raise InvalidArgumentError(f"a sign policy needs an (n_times, {basis.n_features}) "
                                   f"weight table, got shape {tables.shape}")
    if not (0 <= k < math.inf and 0 < dt < math.inf):
        raise InvalidArgumentError(f"a sign policy needs finite k >= 0 and dt > 0, "
                                   f"got k = {k}, dt = {dt}")
    return DriftPolicy(
        kind="sign_of_regression",
        payload={"tables": tables, "basis": basis, "k": float(k), "dt": float(dt)},
        radius=float(k),
    )
