"""Drift perturbation policies: feedback rules (t, state) -> theta in [-k, k].

Kinds:
    piecewise_table      theta from a table over equal time buckets; the
                         zero and constant policies are one-bucket tables
                         over an infinite horizon
    sign_of_regression   theta = k * sgn(P_hat(t, X, M)) from per-step
                         regression tables of the adjoint surface

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
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, MissingFeatureError
from .features import RegressionBasis, FrozenRegression

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

    def evaluate(self, t: float, x: np.ndarray, m: Optional[np.ndarray] = None):
        """Policy value in [-radius, radius] at time t on arrays of X (and M
        when `needs_m`); a float when the policy does not read the state."""
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
        design = p["basis"].design({"x": x, "m": m})
        surface = p["tables"][j].predict(design).reshape(np.shape(x))
        return p["k"] * np.sign(surface)

    def digest(self) -> str:
        return hashlib.sha256(self._canonical().encode()).hexdigest()[:16]

    def _canonical(self) -> str:
        def enc(obj):
            if isinstance(obj, DriftPolicy):
                return {"kind": obj.kind, "radius": repr(obj.radius),
                        "payload": enc(obj.payload)}
            if isinstance(obj, dict):
                return {k: enc(v) for k, v in sorted(obj.items())}
            if isinstance(obj, (list, tuple)):
                return [enc(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return [repr(float(v)) for v in obj.ravel()]
            if isinstance(obj, FrozenRegression):
                return enc(obj.w)
            if isinstance(obj, RegressionBasis):
                return [obj.feature_map_id, obj.degree]
            if isinstance(obj, float):
                return repr(obj)
            return obj

        return json.dumps(enc(self), sort_keys=True)


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


def sign_of_regression_policy(tables: Sequence[FrozenRegression], basis: RegressionBasis,
                              k: float, dt: float) -> DriftPolicy:
    if "u" in basis.variables:
        raise InvalidArgumentError(
            f"feature map {basis.feature_map_id!r} reads the control u; a drift "
            "policy may only read X and M")
    if not (tables := list(tables)):
        raise InvalidArgumentError("a sign policy needs at least one regression table")
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidArgumentError(f"sign policy dt must be finite and > 0, got {dt}")
    return DriftPolicy(
        kind="sign_of_regression",
        payload={"tables": tables, "basis": basis, "k": float(k), "dt": float(dt)},
        radius=float(k),
    )
