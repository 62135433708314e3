"""Dense weighted least squares and the global linear baseline.

A single fit goes through a rank-revealing decomposition of the
square-root-weighted design rather than the normal equations and
refuses a numerically singular system. The batched solver trades that
robustness for throughput where thousands of small systems are solved
at once: the local fits, and search candidates, whose kernels arrive
stacked several to a call. Matrix products (GEMM) assemble the normal
systems, the extreme eigenvalues of the symmetric X'WX estimate their
condition, a small ridge solves the ones above CONDITION_LIMIT, and
the rows even that cannot solve are flagged as failed.

Each batch is factored once, N = LL' by batched Cholesky, and that
factor both screens and solves. Its triangular inverse bounds each
condition number, cond(N) <= ||N||_F ||L^-1||_F^2, at most p^1.5 above
the truth. A row whose bound is at most half of CONDITION_LIMIT is well
conditioned by both measures and is solved as L^-T (L^-1 c); only the
other rows are handed to eigvalsh, so the flags are those eigvalsh
alone gives, and only the rows it flags are solved by LU.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateWeightsError,
    DimensionError,
    ParameterError,
    SingularFitError,
)

# Condition estimate of X'WX above which an unregularized solve is refused.
CONDITION_LIMIT = 1e12

# Ridge of the batched rows above CONDITION_LIMIT: RIDGE_SCALE * trace / p.
RIDGE_SCALE = 1e-8


def design_matrix(covariates) -> np.ndarray:
    """Covariate matrix with an intercept column of ones prepended."""
    X = np.atleast_2d(np.asarray(covariates, dtype=float))
    if X.ndim != 2:
        raise DimensionError("covariates must form a 2-d matrix")
    return np.hstack([np.ones((X.shape[0], 1)), X])


def _validate_system(X, y, w):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if w.shape[0] != y.shape[0]:
        raise DimensionError(f"y has {y.shape[0]} entries but w has {w.shape[0]}")
    if X.shape[0] == 0:
        raise DimensionError("empty system")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ParameterError("X, y and w must be finite")
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
            f"weighted design is rank deficient (rank {rank} of {p})"
        )
    cond = (sv[0] / sv[-1]) ** 2
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularFitError(
            f"weighted normal matrix is numerically singular "
            f"(condition estimate {cond:.3e})"
        )
    return beta


def fit_ols(X, y) -> np.ndarray:
    """Ordinary least squares: unit weights, no ridge."""
    y_arr = np.asarray(y, dtype=float).ravel()
    return solve_wls(X, y_arr, np.ones(y_arr.shape[0]))


def predict(X, beta) -> np.ndarray:
    """Linear predictions X @ beta with a dimension check."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta = np.asarray(beta, dtype=float).ravel()
    if X.shape[1] != beta.shape[0]:
        raise DimensionError(
            f"design has {X.shape[1]} columns but beta has {beta.shape[0]} entries"
        )
    return X @ beta


class BatchedDesign:
    """The rows many weighted least-squares systems share: design X,
    response y, and the GEMM operands of their normal equations, vec(x x')
    and x * y per row, built once for every batched solve."""

    def __init__(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        n, p = X.shape
        if y.shape != (n,):
            raise DimensionError(f"X has {n} rows but y has {y.size}")
        self.X, self.y = X, y
        # Overflow here is left to the solver, which flags such rows failed.
        with np.errstate(over="ignore", invalid="ignore"):
            self.outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
            self.xy = X * y[:, None]


def solve_wls_batched(design: BatchedDesign, W):
    """Solve one weighted system per row of W through the normal equations.

    W is (m, n), one row of weights per system, or a stack (k, r, n)
    solved as its k * r rows in order. Every normal matrix N = X'W_iX
    comes from one GEMM per weight matrix, W @ vec(x x'), and every
    right-hand side c = X'W_iy from a second, so a stack gives the
    numbers of k calls (one tall GEMM can round differently).

    One batched Cholesky factor N = LL' screens and solves. A row whose
    bound ||N||_F ||L^-1||_F^2 >= cond(N) is above CONDITION_LIMIT / 2
    (the 2 absorbs rounding) or not finite is judged by eigvalsh, as is
    every row of a batch Cholesky refuses: lambda_max / lambda_min,
    infinite when lambda_min <= 0 or NaN, above CONDITION_LIMIT flags
    it. Rows it clears are solved as beta = L^-T (L^-1 c), factored
    anew if their batch was refused. Flagged rows get ridge =
    RIDGE_SCALE * trace / p added in place to their diagonal, are solved
    by LU and flagged in `regularized`; rows whose ridge is not finite
    and positive, or that remain unsolvable, become the identity in
    place, are flagged in `failed` and their coefficients zeroed. No
    row's numbers depend on the rest of its batch.

    Returns (betas (m, p), regularized (m,) bool, failed (m,) bool).
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n, p = design.X.shape
    if W.shape[-1] != n:
        raise DimensionError(f"X has {n} rows but W is {W.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        N = (W @ design.outer).reshape(-1, p, p)
        m = len(N)
        c = (W @ design.xy).reshape(m, p)
    inv = _inverse_factor(N)
    bad = _ill_conditioned(N, inv)
    if inv is None or bad.any():
        # Keep, or factor anew, only the rows eigvalsh clears.
        inv = _inverse_factor(N[~bad]) if inv is None else inv[~bad]
    # Should Cholesky refuse a row eigvalsh clears, all rows go to LU.
    lu = bad | (inv is None)
    betas = np.zeros((m, p))
    if not lu.all():
        z = np.einsum("mij,mj->mi", inv, c[~lu])
        betas[~lu] = np.einsum("mji,mj->mi", inv, z)
    failed = np.zeros(m, dtype=bool)
    if lu.any():
        traces = np.einsum("ikk->i", N)
        ridges = np.where(bad, RIDGE_SCALE * np.maximum(traces, 0.0) / p, 0.0)
        # A NaN or infinite ridge (an overflowing trace) fails too.
        failed |= bad & ~((ridges > 0) & (ridges < np.inf))
        N.reshape(m, p * p)[:, :: p + 1] += ridges[:, None]
        N[failed] = np.eye(p)
        c[failed] = 0.0
        rows = np.flatnonzero(lu)
        try:
            betas[rows] = np.linalg.solve(N[rows], c[rows, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for i in rows[~failed[rows]]:
                try:
                    betas[i] = np.linalg.solve(N[i], c[i])
                except np.linalg.LinAlgError:
                    failed[i] = True
    failed |= ~np.all(np.isfinite(betas), axis=1)
    betas[failed] = 0.0
    return betas, bad & ~failed, failed


def _inverse_factor(N):
    """L^-1 of each N = LL', None when Cholesky refuses a matrix of the
    batch; built in place by forward substitution, row i of L^-1 over
    row i of L, so it holds one (m, p, p) array besides N."""
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
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


def _eigvalsh_rule(N):
    """Rows of N whose eigvalsh condition estimate, lambda_max /
    lambda_min, is not finite or exceeds CONDITION_LIMIT."""
    eig = np.linalg.eigvalsh(N)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(all="ignore"):
        conds = np.where(lo > 0, hi / lo, np.inf)
    return ~np.isfinite(conds) | (conds > CONDITION_LIMIT)


def _ill_conditioned(N, inv):
    """_eigvalsh_rule(N), with eigvalsh run only on the rows the bound
    from inv, each L^-1, cannot clear; on all rows when inv is None."""
    if inv is None:
        return _eigvalsh_rule(N)
    bad = ~(_condition_bound(N, inv) <= CONDITION_LIMIT / 2)
    if bad.any():
        bad[bad] = _eigvalsh_rule(N[bad])
    return bad
