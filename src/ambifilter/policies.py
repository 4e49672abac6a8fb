"""Drift perturbation policies: feedback rules (t, state) -> theta in [-k, k].

Kinds:
    zero                 theta = 0
    constant             theta = c
    piecewise_table      theta from a table over equal time buckets
    sign_of_regression   theta = k * sgn(P_hat(t, X, M)) from per-step
                         regression tables of the adjoint surface
    mixture              convex/affine combination of other policies
                         (damped fixed-point iterates, perturbation
                         directions theta + eps*v)

Every evaluation clamps to [-radius, radius]; sgn(0) = 0 so the value set of
a sign policy is exactly {-k, 0, +k}. Policies declare which state features
they need ("x" always, "m" for regression-based rules) so simulators can fail
loudly instead of silently feeding garbage.
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

POLICY_KINDS = ("zero", "constant", "piecewise_table", "sign_of_regression", "mixture")


@dataclass(frozen=True)
class DriftPolicy:
    kind: str
    payload: dict = field(default_factory=dict)
    radius: float = 0.0  # clamp bound; math.inf for unconstrained directions

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidArgumentError(f"unknown policy kind {self.kind!r}")
        if self.radius < 0:
            raise InvalidArgumentError("policy radius must be >= 0")

    @property
    def requires(self) -> frozenset[str]:
        if self.kind == "sign_of_regression":
            return frozenset(("x",) if self.payload["basis"].feature_map_id == "poly_x"
                             else ("x", "m"))
        if self.kind == "mixture":
            out: frozenset[str] = frozenset()
            for _, member in self.payload["members"]:
                out = out | member.requires
            return out
        return frozenset({"x"})

    def evaluate(self, t: float, values: dict[str, np.ndarray]) -> np.ndarray:
        """Clamped policy value at time t on arrays of state features."""
        missing = self.requires - values.keys()
        if missing:
            raise MissingFeatureError(
                f"policy kind {self.kind!r} needs features {sorted(missing)}; "
                "simulate the weight process alongside the signal to supply them"
            )
        raw = self._raw(t, values)
        if math.isinf(self.radius):
            return raw
        return np.clip(raw, -self.radius, self.radius)

    def _raw(self, t: float, values: dict[str, np.ndarray]) -> np.ndarray:
        x = np.asarray(values["x"], dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.payload["value"])
        if self.kind == "piecewise_table":
            vals = self.payload["values"]
            tb = min(max(int(t / self.payload["horizon"] * vals.size), 0), vals.size - 1)
            return np.full_like(x, vals[tb])
        if self.kind == "sign_of_regression":
            p = self.payload
            j = int(np.clip(round(t / p["dt"]), 0, len(p["tables"]) - 1))
            basis: RegressionBasis = p["basis"]
            feats = {"x": x.ravel()}
            if "m" in basis.variables:
                feats["m"] = np.asarray(values["m"], dtype=float).ravel()
            surface = p["tables"][j].predict(basis.design(feats)).reshape(x.shape)
            return p["k"] * np.sign(surface)
        # mixture
        out = np.zeros_like(x)
        for w, member in self.payload["members"]:
            out = out + w * member._raw(t, values)
        return out

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
                return [obj.feature_map_id, obj.degree, repr(obj.ridge_lambda)]
            if isinstance(obj, float):
                return repr(obj)
            return obj

        return json.dumps(enc(self), sort_keys=True)


def zero_policy() -> DriftPolicy:
    return DriftPolicy(kind="zero", radius=0.0)


def constant_policy(value: float, radius: Optional[float] = None) -> DriftPolicy:
    r = abs(value) if radius is None else radius
    return DriftPolicy(kind="constant", payload={"value": float(value)}, radius=r)


def time_table_policy(values: Sequence[float], horizon: float,
                      radius: float) -> DriftPolicy:
    """Piecewise-constant-in-time policy over equal buckets of [0, horizon]."""
    return DriftPolicy(
        kind="piecewise_table",
        payload={"horizon": float(horizon),
                 "values": np.asarray(values, dtype=float).ravel()},
        radius=radius,
    )


def sign_of_regression_policy(tables: Sequence[FrozenRegression], basis: RegressionBasis,
                              k: float, dt: float) -> DriftPolicy:
    return DriftPolicy(
        kind="sign_of_regression",
        payload={"tables": list(tables), "basis": basis, "k": float(k), "dt": float(dt)},
        radius=float(k),
    )


def mixture_policy(members: Sequence[tuple[float, DriftPolicy]], radius: float,
                   prune_below: float = 0.0) -> DriftPolicy:
    """Linear combination of policies, clamped at the top level. Nested
    mixtures are flattened so evaluation cost stays linear in the number of
    distinct leaves; negligible weights can be pruned (renormalizing)."""
    flat: list[tuple[float, DriftPolicy]] = []
    for w, pol in members:
        if pol.kind == "mixture":
            flat.extend((w * wi, mi) for wi, mi in pol.payload["members"])
        else:
            flat.append((float(w), pol))
    if prune_below > 0.0:
        total = sum(w for w, _ in flat)
        kept = [(w, p) for w, p in flat if abs(w) >= prune_below]
        if kept and total != 0.0:
            scale = total / sum(w for w, _ in kept)
            flat = [(w * scale, p) for w, p in kept]
    if not flat:
        return DriftPolicy(kind="zero", radius=radius)
    return DriftPolicy(kind="mixture", payload={"members": flat}, radius=radius)


def perturbed_policy(base: DriftPolicy, direction: DriftPolicy, eps: float,
                     radius: float) -> DriftPolicy:
    """theta + eps * v, clamped to the ambiguity radius."""
    return mixture_policy([(1.0, base), (float(eps), direction)], radius=radius)
