"""Dense weighted least squares and the global linear baseline.

A single fit goes through a rank-revealing decomposition of the
square-root-weighted design rather than the normal equations and
refuses a numerically singular system. The batched solver trades that
robustness for throughput where thousands of small systems are solved
at once, the local fits and the search candidates. Matrix products
(GEMM) build the systems, W @ BatchedDesign.outer and W @
BatchedDesign.xy per weight row (local._local_systems builds them block
by block). solve_wls_batched solves a whole stack in one call:
one batched Cholesky factor screens each condition number and solves
the well-conditioned rows, eigvalsh judges the rest, and a small
ridge solves those above CONDITION_LIMIT.

The module keeps no state, so threads may call it at once; how many
threads OpenBLAS uses is the caller's choice (see local._search_helper).
"""

from __future__ import annotations

import numpy as np

from .data import _finite_array
from .errors import (DegenerateWeightsError, DimensionError, ParameterError,
                     SingularFitError)

# Condition estimate of X'WX above which an unregularized solve is refused.
CONDITION_LIMIT = 1e12

# Ridge of the batched rows above CONDITION_LIMIT: RIDGE_SCALE * trace / p.
RIDGE_SCALE = 1e-8


def design_matrix(covariates) -> np.ndarray:
    """Covariate matrix with an intercept column of ones prepended."""
    return _design(_finite_array(covariates, "covariates", (None, None)))


def _design(X) -> np.ndarray:
    """design_matrix of a float matrix already checked."""
    return np.hstack([np.ones((X.shape[0], 1)), X])


def _validate_system(X, y, w):
    X = _finite_array(X, "X", (None, None))
    y, w = (_finite_array(v, key, (len(X),)) for key, v in (("y", y), ("w", w)))
    if X.size == 0:
        raise DimensionError("empty system")
    if np.any(w < 0):
        raise ParameterError("weights must be nonnegative")
    if not np.any(w > 0):
        raise DegenerateWeightsError("all observation weights are zero")
    return X, y, w


def solve_wls(X, y, w) -> np.ndarray:
    """Solve argmin_b sum_i w_i (y_i - x_i'b)^2.

    X is (n, p), intercept column included by the caller; y is (n,);
    w is (n,) nonnegative with at least one positive weight. A
    numerically singular system (condition estimate of X'WX above
    CONDITION_LIMIT) raises SingularFitError.
    """
    X, y, w = _validate_system(X, y, w)
    sw = np.sqrt(w)
    p = X.shape[1]
    beta, _, rank, sv = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    # cond(X'WX) is the squared singular-value ratio of sqrt(W) X.
    if rank < p or sv[-1] == 0:
        raise SingularFitError(
            f"weighted design is rank deficient (rank {rank} of {p})")
    cond = (sv[0] / sv[-1]) ** 2
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularFitError(
            f"weighted normal matrix is numerically singular "
            f"(condition estimate {cond:.3e})")
    return beta


def fit_ols(X, y) -> np.ndarray:
    """Ordinary least squares: unit weights, no ridge."""
    y = _finite_array(y, "y", (None,))
    return solve_wls(X, y, np.ones(len(y)))


def predict(X, beta) -> np.ndarray:
    """Linear predictions X @ beta with a dimension check."""
    beta = _finite_array(beta, "beta", (None,))
    return _finite_array(X, "design", (None, len(beta))) @ beta


class BatchedDesign:
    """The rows many weighted least-squares systems share: design X,
    response y, and the GEMM operands of their normal equations, vec(x x')
    and x * y per row, built once for every batched solve."""

    def __init__(self, X, y):
        X = _finite_array(X, "X", (None, None))
        self.X, self.y = X, _finite_array(y, "y", (len(X),))
        n, p = X.shape
        # Overflow here is left to the solver, which flags such rows failed.
        with np.errstate(over="ignore", invalid="ignore"):
            self.outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
            self.xy = X * self.y[:, None]


def solve_wls_batched(N, c):
    """Solve the normal equations N_i beta = c_i of a batch of weighted
    systems: N (m, p, p) and c (m, p). N is consumed when it is a
    C-contiguous float64 array, as matrix products return it: the
    ridges below are written into it in place.

    One batched Cholesky factor N = LL' screens and solves, each row
    alone: a row it refuses has a NaN factor. A row whose bound
    ||N||_F ||L^-1||_F^2 >= cond(N) (at most p^1.5 above it) is above
    CONDITION_LIMIT / 2 or not finite, refused rows included, is judged
    by eigvalsh: lambda_max / lambda_min, infinite when lambda_min <= 0
    or NaN, above CONDITION_LIMIT flags it. So the flags are eigvalsh's
    alone. Rows it clears are solved as beta = L^-T (L^-1 c), by LU if
    refused. Flagged rows get ridge = RIDGE_SCALE * trace / p added to
    their diagonal, are solved by LU and flagged in `regularized`; rows
    whose ridge is not finite and positive, or that LU cannot solve,
    are flagged in `failed` and their coefficients zeroed. No row's
    numbers depend on the rest of its batch.

    Returns (betas (m, p), regularized (m,) bool, failed (m,) bool).
    """
    N = np.ascontiguousarray(N, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    if c.ndim != 2 or N.shape != c.shape + c.shape[-1:]:
        raise DimensionError(f"N is {N.shape} but c is {c.shape}")
    m, p = c.shape
    inv = _inverse_factor(N)
    bad = _ill_conditioned(N, inv)
    # A refused row has a NaN factor: LU solves it if eigvalsh clears it.
    lu = bad | np.isnan(inv[:, 0, 0])
    # Every row, so that inv is not copied; LU rows are redone below.
    with np.errstate(all="ignore"):
        betas = np.einsum("mji,mj->mi", inv, np.einsum("mij,mj->mi", inv, c))
    failed = np.zeros(m, dtype=bool)
    if lu.any():
        traces = np.einsum("ikk->i", N)
        ridges = np.where(bad, RIDGE_SCALE * np.maximum(traces, 0.0) / p, 0.0)
        # A NaN or infinite ridge (an overflowing trace) fails too.
        failed |= bad & ~((ridges > 0) & (ridges < np.inf))
        N.reshape(m, p * p)[:, :: p + 1] += ridges[:, None]
        # np.linalg.solve's gufunc, silenced: NaN where LU fails a row.
        with np.errstate(all="ignore"):
            betas[lu] = np.linalg._umath_linalg.solve(N[lu],
                                                      c[lu, :, None])[..., 0]
    failed |= ~np.all(np.isfinite(betas), axis=1)
    betas[failed] = 0.0
    return betas, bad & ~failed, failed


def _inverse_factor(N):
    """L^-1 of each N = LL', built in place by forward substitution, row
    i of L^-1 over row i of L. The gufunc np.linalg.cholesky wraps,
    silenced, factors each N alone: a NaN lower triangle where it
    refuses N, np.linalg.cholesky's bits elsewhere."""
    with np.errstate(all="ignore"):
        L = np.linalg._umath_linalg.cholesky_lo(N)
        for i in range(N.shape[-1]):
            d = L[:, i, i]
            # Rows above i already hold L^-1's, which is lower
            # triangular, so its row i needs only their first i columns.
            L[:, i, :i] = np.einsum("mj,mjk->mk", L[:, i, :i],
                                    L[:, :i, :i]) / -d[:, None]
            L[:, i, i] = 1.0 / d
    return L


def _condition_bound(N, inv):
    """Upper bound ||N||_F ||L^-1||_F^2 on cond_2 of each N = LL', at
    most p^1.5 above it; inv holds each L^-1."""
    with np.errstate(all="ignore"):
        return (np.sqrt(np.einsum("mij,mij->m", N, N))
                * np.einsum("mij,mij->m", inv, inv))


def _ill_conditioned(N, inv):
    """Rows of N whose eigvalsh condition estimate, lambda_max /
    lambda_min, is not finite or exceeds CONDITION_LIMIT. eigvalsh runs
    only on the rows the bound from inv, each L^-1, cannot clear (a
    refused row's NaN bound)."""
    bad = ~(_condition_bound(N, inv) <= CONDITION_LIMIT / 2)
    if bad.any():
        eig = np.linalg.eigvalsh(N[bad])
        lo, hi = eig[:, 0], eig[:, -1]
        with np.errstate(all="ignore"):
            conds = np.where(lo > 0, hi / lo, np.inf)
        bad[bad] = ~np.isfinite(conds) | (conds > CONDITION_LIMIT)
    return bad
