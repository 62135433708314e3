"""Dense weighted least squares and the global linear baseline.

Single fits go through a rank-revealing decomposition of the
square-root-weighted design rather than the normal equations; an
optional ridge term stabilizes near-singular local systems. The
batched solver trades that robustness for throughput where thousands
of small systems are solved at once: the final local fits, and search
candidates, whose kernels arrive stacked several to a call. Matrix
products (GEMM) assemble the normal systems, the extreme eigenvalues
of the symmetric X'WX estimate their condition, and the rows it cannot
solve fall back to the stable path. A test pins it to the stable path.

Eigenvalues cost several times an LU solve, so a batch is first
screened with a cheaper upper bound on each condition number: one
batched Cholesky factor N = LL', its triangular inverse, and
cond(N) <= ||N||_F ||L^-1||_F^2, at most p^1.5 above the truth. A row
whose bound is at most half of CONDITION_LIMIT is well conditioned by
both measures; only the other rows are handed to eigvalsh, so the
flags are those eigvalsh alone gives. Batches Cholesky refuses, and
batches too small to repay the screen, go to eigvalsh whole.
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

# Fallback ridge used by local fits: RIDGE_SCALE * trace(X'WX) / n_coefficients.
RIDGE_SCALE = 1e-8

# Batches of fewer systems skip the Cholesky screen: below about this
# many rows (p = 3 to 20) eigvalsh on all of them is the cheaper check.
_SCREEN_MIN_ROWS = 64


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


def solve_wls(X, y, w, ridge: float = 0.0) -> np.ndarray:
    """Solve argmin_b sum_i w_i (y_i - x_i'b)^2 + ridge * ||b||^2.

    Parameters
    ----------
    X : (n, p) design matrix, intercept column included by the caller.
    y : (n,) responses.
    w : (n,) nonnegative weights, at least one positive.
    ridge : float
        Optional Tikhonov term. With ridge = 0 the solve refuses
        numerically singular systems (condition estimate of X'WX above
        CONDITION_LIMIT) by raising SingularFitError.
    """
    X, y, w = _validate_system(X, y, w)
    if ridge < 0 or not np.isfinite(ridge):
        raise ParameterError(f"ridge must be finite and nonnegative, got {ridge}")
    sw = np.sqrt(w)
    A = X * sw[:, None]
    b = y * sw
    p = X.shape[1]
    if ridge > 0:
        A = np.vstack([A, np.sqrt(ridge) * np.eye(p)])
        b = np.concatenate([b, np.zeros(p)])
    beta, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if ridge == 0:
        # cond(X'WX) equals the squared singular-value ratio of A.
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


def solve_wls_batched(X, y, W):
    """Solve one weighted system per row of W through the normal equations.

    W is (m, n), one row of weights per system, or a stack (k, r, n)
    solved as its k * r rows in order. Every normal matrix X'W_iX comes
    from one GEMM per weight matrix, W @ vec(x x'), and every right-hand
    side X'W_iy from a second, so a stack gives the numbers of k calls
    (one tall GEMM can round differently); all are solved in one batched
    call. The condition estimate of X'W_iX, symmetric positive
    semidefinite, is lambda_max / lambda_min from eigvalsh, infinite
    when lambda_min <= 0 or NaN. Rows whose estimate exceeds
    CONDITION_LIMIT get ridge = RIDGE_SCALE * trace / p added in place
    to their diagonal and are flagged in `regularized`; rows that remain
    unsolvable become the identity in place, are flagged in `failed`
    and their coefficients zeroed.

    eigvalsh runs only on the rows the Cholesky screen (see
    _ill_conditioned) cannot clear: those whose bound
    ||N||_F ||L^-1||_F^2 is above CONDITION_LIMIT / 2 or not finite.
    The factor 2 absorbs the rounding of both estimates. A batch with a
    matrix Cholesky refuses (not positive definite), or of fewer than
    _SCREEN_MIN_ROWS systems, is checked by eigvalsh alone.

    Returns (betas (m, p), regularized (m,) bool, failed (m,) bool).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape[-1] != X.shape[0] or X.shape[0] != y.shape[0]:
        raise DimensionError(
            f"shape mismatch: X {X.shape}, y {y.shape}, W {W.shape}"
        )
    n, p = X.shape
    outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    N = (W @ outer).reshape(-1, p, p)
    m = len(N)
    c = (W @ (X * y[:, None])).reshape(m, p)
    bad = _ill_conditioned(N)
    failed = np.zeros(m, dtype=bool)
    if np.any(bad):
        traces = np.einsum("ikk->i", N)
        ridges = np.where(bad, RIDGE_SCALE * np.maximum(traces, 0.0) / p, 0.0)
        failed |= bad & (ridges <= 0)
        N.reshape(m, p * p)[:, :: p + 1] += ridges[:, None]
        N[failed] = np.eye(p)
        c[failed] = 0.0
    try:
        betas = np.linalg.solve(N, c[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        betas = np.zeros((m, p))
        for i in range(m):
            if failed[i]:
                continue
            try:
                betas[i] = np.linalg.solve(N[i], c[i])
            except np.linalg.LinAlgError:
                failed[i] = True
    failed |= ~np.all(np.isfinite(betas), axis=1)
    betas[failed] = 0.0
    return betas, bad & ~failed, failed


def _condition_bound(N):
    """Upper bound ||N||_F ||L^-1||_F^2 on cond_2 of each N = LL'.

    None when Cholesky refuses a matrix of the batch. The inverse of L
    is built in place by forward substitution, row i of L^-1 over row i
    of L, so the screen holds one (m, p, p) array besides N.
    """
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
        return (np.sqrt(np.einsum("mij,mij->m", N, N))
                * np.einsum("mij,mij->m", L, L))


def _eigvalsh_rule(N):
    """Rows of N whose eigvalsh condition estimate, lambda_max /
    lambda_min, is not finite or exceeds CONDITION_LIMIT."""
    eig = np.linalg.eigvalsh(N)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(all="ignore"):
        conds = np.where(lo > 0, hi / lo, np.inf)
    return ~np.isfinite(conds) | (conds > CONDITION_LIMIT)


def _ill_conditioned(N):
    """_eigvalsh_rule(N), with eigvalsh run only on the rows the
    Cholesky screen cannot clear."""
    bound = _condition_bound(N) if len(N) >= _SCREEN_MIN_ROWS else None
    if bound is None:
        return _eigvalsh_rule(N)
    # Rows the bound cannot clear are flagged as eigvalsh decides.
    bad = ~(bound <= CONDITION_LIMIT / 2)
    if bad.any():
        bad[bad] = _eigvalsh_rule(N[bad])
    return bad
