"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers that the benchmark installs over the public
entry points of each ambifilter layer. Each wrapper replaces the name where
its callers look it up (for example ``ambifilter.bsde.fit_ridge``, which is
the only name ``solve_worst_value`` and ``solve_adjoint`` see), and is
removed again when the traced operation ends, so untraced operations run the
unmodified code.

A span stores its name, parent, start, end, process CPU time and a few
counts taken from the call's arguments or result. The counts are taken after
the span's clock stops, so they are charged to the parent's self time and
never to the layer being measured.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int               # index of the parent span, -1 for a root
    start: float              # perf_counter seconds
    end: float = 0.0
    cpu: float = 0.0          # process CPU seconds (user + sys, all threads)
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def open(self, name: str) -> tuple[int, float]:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, parent, 0.0))
        self.stack.append(idx)
        cpu0 = time.process_time()
        self.spans[idx].start = time.perf_counter()
        return idx, cpu0

    def close(self, idx: int, cpu0: float) -> Span:
        end = time.perf_counter()
        span = self.spans[idx]
        span.end = end
        span.cpu = time.process_time() - cpu0
        self.stack.pop()
        return span

    @contextmanager
    def root(self, name: str):
        """Root span of one operation; layer spans are recorded only inside
        a root, so input preparation and checks stay out of the trace."""
        idx, cpu0 = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx, cpu0)

    def parent_name(self, idx: int) -> str:
        p = self.spans[idx].parent
        return self.spans[p].name if p >= 0 else ""

    def subtree(self, root: int) -> list[int]:
        """Indices of the root span and every span recorded below it."""
        out = [root]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].start >= self.spans[root].end:
                break
            out.append(i)
        return out

    def self_times(self, root: int) -> dict[int, float]:
        """Span wall time minus the part of its interval that its direct
        children cover. Every layer call is synchronous, so children nest
        inside their parent without overlap and the self times of a subtree
        add up to the root's wall time; a child that overlapped a sibling or
        outlived its parent would make them add up to more."""
        idxs = self.subtree(root)
        kids: dict[int, list[Span]] = {i: [] for i in idxs}
        for i in idxs[1:]:
            kids[self.spans[i].parent].append(self.spans[i])
        own = {}
        for i in idxs:
            span = self.spans[i]
            covered, reach = 0.0, span.start
            for child in sorted(kids[i], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[i] = span.wall - covered
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "wall": s.wall, "cpu": s.cpu, "counts": s.counts}
                for s in self.spans]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_noise(args, kwargs, out):
    return {"key": (out.seed, out.n_paths, out.n_steps)}


def _count_bundle(args, kwargs, out):
    return {"path_steps": out.n_paths * out.grid.n_steps}


def _count_bank(args, kwargs, out):
    n_particles = _arg(args, kwargs, 4, "n_particles")
    m, n_steps = out.u.shape[0], out.u.shape[1] - 1
    return {"particle_steps": m * n_particles * n_steps,
            "resampled_rows": int(out.flags[:, 1:].sum()),
            "rows": m * n_steps,
            "ess_min_frac": float(out.ess[:, 1:].min()) / n_particles}


def _count_evaluate(args, kwargs, out):
    policy = args[0]
    leaves = len(policy.payload["members"]) if policy.kind == "mixture" else 1
    return {"points": int(np.size(out)), "leaves": leaves}


def _count_rows(args, kwargs, out):
    return {"rows": int(out.shape[0])}


def _count_fit(args, kwargs, out):
    return {"rows": int(_arg(args, kwargs, 0, "F").shape[0])}


def _count_picard(args, kwargs, out):
    return {"iterations": len(out.iterations),
            "final_sign_agreement": out.iterations[-1].sign_agreement}


def _wrap(rec: Recorder, name: str, fn, counter):
    def wrapper(*args, **kwargs):
        if not rec.stack:
            return fn(*args, **kwargs)
        idx, cpu0 = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            span = rec.close(idx, cpu0)
        if counter is not None:
            span.counts = counter(args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _targets():
    """(layer name, counter, [(owner, attribute), ...]) for every traced
    entry point, listing each place a caller looks the name up."""
    from ambifilter import bsde, features, filtering, minimax, model, oracles, policies

    return [
        ("model.sample_noise", _count_noise, [(model, "sample_noise")]),
        ("model.simulate_bundle", _count_bundle,
         [(model, "simulate_bundle"), (bsde, "simulate_bundle"),
          (minimax, "simulate_bundle")]),
        ("filtering.run_filter_bank", _count_bank,
         [(filtering, "run_filter_bank"), (bsde, "run_filter_bank"),
          (minimax, "run_filter_bank")]),
        ("policies.evaluate", _count_evaluate, [(policies.DriftPolicy, "evaluate")]),
        ("features.design", _count_rows, [(features.RegressionBasis, "design")]),
        ("features.predict", _count_rows, [(features.FrozenRegression, "predict")]),
        ("features.fit_ridge", _count_fit, [(bsde, "fit_ridge")]),
        ("bsde.solve_worst_value", None, [(bsde, "solve_worst_value")]),
        ("bsde.solve_adjoint", None, [(bsde, "solve_adjoint"), (minimax, "solve_adjoint")]),
        ("bsde.weighted_cost_qtilde", None,
         [(bsde, "weighted_cost_qtilde"), (minimax, "weighted_cost_qtilde")]),
        ("minimax.evaluate_cost", None, [(minimax, "evaluate_cost"), (oracles, "evaluate_cost")]),
        ("minimax.picard_solve", _count_picard, [(minimax, "picard_solve")]),
        ("oracles.grid_sup_cost", None, [(oracles, "grid_sup_cost")]),
    ]


@contextmanager
def installed(rec: Recorder):
    """Patch every traced entry point for the duration of the block."""
    undo = []
    try:
        for name, counter, sites in _targets():
            original = getattr(*sites[0])
            wrapper = _wrap(rec, name, original, counter)
            for owner, attr in sites:
                undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
