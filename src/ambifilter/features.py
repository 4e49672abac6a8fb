"""Polynomial feature maps and per-step ridge projections for the backward
solvers.

Conditional expectations E[. | F_t] are approximated by projecting on
monomials of the per-path state available at t. Feature maps are named so
fitted weights can be evaluated later (a sign rule's weight table):

    poly_xm   monomials in (X, M): the adjoint surface that sign rules read
    poly_xu   monomials in (X, u): the worst-case value

The design always contains the constant monomial. Columns are standardized
before the ridge solve; zero-variance columns are dropped (at t=0 every path
is identical, so the design collapses to the intercept and the projection is
the plain mean, as it should be).

One regression step is factored once: `fit_ridge` standardizes the design,
reads its rank and condition number from its triangular factor R and builds
the ridge Gram matrix (penalty `RIDGE_PER_PATH` times the row count), and
every right-hand side of the step is then fitted with a k x k solve. A fitted
regression is a weight vector on the raw monomial design: `fit_ridge` maps
the standardized coefficients back (scale 1/sd, intercept shift -mu/sd, zero
weight for dropped columns), so `predict` is one `F @ w` and no consumer sees
the standardization.

R comes from numpy QR calls of at most 8192 elements (`QR_BLOCK_ELEMENTS`):
a taller design is cut into row blocks, each reduced to its R, and the stack
of R's, which has the same D.T @ D, is reduced again to k x k (the
tall-skinny QR of Demmel, Grigori, Hoemmen and Langou). Past that size
numpy's OpenBLAS threads the Householder updates and its worker spins
between fits: unblocked QRs of 2000 x 6 designs, a Picard adjoint step's
shape, made it burn as much CPU as the calling thread. The tall design never
meets an SVD, and R is never pivoted: the rank rule reads its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import IllConditionedBasisError, InvalidArgumentError

FEATURE_MAPS = {
    "poly_xm": ("x", "m"),
    "poly_xu": ("x", "u"),
}

COND_LIMIT = 1e12
RIDGE_PER_PATH = 1e-8   # a design of n rows gets the ridge penalty RIDGE_PER_PATH * n

# Largest LAPACK call of the rank/condition factorization, in elements. Each
# Householder step of a QR applies one rank-1 update to the trailing
# m x (k - 1) panel, and numpy's OpenBLAS threads that update once the panel
# passes 8192 elements. Measured with np.linalg.qr on a 2-vCPU host, its
# worker stays idle at 1638 x 6, 1170 x 8 and 910 x 10 and wakes at 1639 x 6,
# 1171 x 8 and 911 x 10. Bounding the whole call by 8192 keeps a column spare.
QR_BLOCK_ELEMENTS = 8192


@lru_cache(maxsize=None)
def monomial_exponents(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= degree, constant first,
    ordered by total degree then lexicographically (deterministic)."""
    exps = [e for e in product(range(degree + 1), repeat=n_vars) if sum(e) <= degree]
    exps.sort(key=lambda e: (sum(e), e))
    return tuple(exps)


@dataclass(frozen=True)
class RegressionBasis:
    """Feature set used by the least-squares Monte Carlo solvers."""

    feature_map_id: str = "poly_xu"
    degree: int = 3

    def __post_init__(self):
        if self.feature_map_id not in FEATURE_MAPS:
            raise InvalidArgumentError(
                f"unknown feature map {self.feature_map_id!r}; known: {sorted(FEATURE_MAPS)}"
            )
        if self.degree < 0:
            raise InvalidArgumentError("degree must be >= 0")

    @property
    def variables(self) -> tuple[str, ...]:
        return FEATURE_MAPS[self.feature_map_id]

    @property
    def n_features(self) -> int:
        return len(monomial_exponents(len(self.variables), self.degree))

    def design(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Monomial design matrix, one row per path."""
        cols = []
        for v in self.variables:
            if v not in values:
                raise InvalidArgumentError(f"feature map needs variable {v!r}")
            cols.append(np.asarray(values[v], dtype=float).ravel())
        exps = monomial_exponents(len(cols), self.degree)
        # each power c**p is computed once (c itself at p = 1); a column multiplies
        # its powers in variable order, the same float products as factor by factor
        powers = [[None, c] + [c**p for p in range(2, self.degree + 1)] for c in cols]
        F = np.empty((cols[0].size, len(exps)))
        for j, e in enumerate(exps):
            col = None
            for pw, p in zip(powers, e):
                if p:
                    col = pw[p] if col is None else col * pw[p]
            F[:, j] = 1.0 if col is None else col
        return F


@dataclass(frozen=True)
class FrozenRegression:
    """A fitted per-step regression: weights on the raw monomial design."""

    w: np.ndarray         # one weight per design column (basis.n_features)

    def predict(self, F: np.ndarray) -> np.ndarray:
        return F @ self.w


@dataclass(frozen=True)
class RidgeProjection:
    """The factored design of one regression step; `fit` projects a
    right-hand side on it."""

    D: np.ndarray         # kept [intercept, standardized] columns, one row per path
    gram: np.ndarray      # D.T @ D + ridge penalty (intercept unpenalized)
    to_raw: np.ndarray    # coefficients on the columns of D -> raw design weights

    def fit(self, y: np.ndarray) -> FrozenRegression:
        return FrozenRegression(self.to_raw @ np.linalg.solve(self.gram, self.D.T @ y))


def fit_ridge(F: np.ndarray) -> RidgeProjection:
    """Factor a standardized n-row design for ridge fits of any number of
    right-hand sides, with the penalty RIDGE_PER_PATH * n.

    Structural rank deficiency is expected (every path starts at the same
    point, so early-step monomials coincide exactly). |r_jj| of the
    unpivoted R is column j's distance from the span of the columns before
    it, so column j is kept iff it exceeds 1e-10 times the largest column
    norm: of each dependent set the lowest index is kept, the same columns
    under any row blocking or BLAS build. The intercept, orthogonal to the
    centred columns, is always kept. The ill-conditioned error is reserved
    for designs with non-finite column statistics and for designs whose
    kept part is still numerically singular beyond the ridge guard; R[:, keep]
    has the singular values of D[:, keep].
    """
    n = F.shape[0]
    mu_all = F.mean(axis=0)
    sd_all = F.std(axis=0)
    if not (np.isfinite(mu_all).all() and np.isfinite(sd_all).all()):
        raise IllConditionedBasisError(
            "design has non-finite columns (features overflowed)")
    mask = sd_all > 1e-12
    mask[0] = False  # column 0 is the constant monomial, absorbed by the intercept
    cols = np.flatnonzero(mask)
    mu, sd = mu_all[cols], sd_all[cols]
    D = np.column_stack([np.ones(n), (F[:, cols] - mu) / sd])
    k = D.shape[1]
    # c0 + sum_i c_i (F_i - mu_i) / sd_i as weights on the raw columns of F
    to_raw = np.zeros((F.shape[1], k))
    to_raw[0, 0] = 1.0
    to_raw[0, 1:] = -mu / sd
    to_raw[cols, np.arange(1, k)] = 1.0 / sd
    R = _triangular_r(D)
    scale = np.sqrt((R * R).sum(axis=0)).max()  # r_00 of a pivoted R
    keep = np.flatnonzero(np.abs(np.diag(R)) > 1e-10 * scale)
    D = D[:, keep]
    sv = np.linalg.svd(R[:, keep], compute_uv=False)
    cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
    if cond > COND_LIMIT:
        raise IllConditionedBasisError(
            f"design condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    penalty = RIDGE_PER_PATH * n * np.eye(D.shape[1])
    penalty[0, 0] = 0.0  # never shrink the intercept
    gram = D.T @ D + penalty
    return RidgeProjection(D=D, gram=gram, to_raw=to_raw[:, keep])


def _triangular_r(D: np.ndarray) -> np.ndarray:
    """R of an unpivoted QR of D, at most k x k; Q is never formed. Blocks of
    at least 2k rows keep the loop finite when k^2 exceeds
    QR_BLOCK_ELEMENTS / 2 (k > 64), at the price of larger calls."""
    k = D.shape[1]
    rows = max(QR_BLOCK_ELEMENTS // k, 2 * k)
    while D.shape[0] > rows:
        D = np.vstack([np.linalg.qr(D[i:i + rows], mode="r")
                       for i in range(0, D.shape[0], rows)])
    return np.linalg.qr(D, mode="r")

