"""Dense weighted least squares and the global linear baseline.

A single fit goes through a rank-revealing decomposition of the
square-root-weighted design rather than the normal equations and
refuses a numerically singular system. The batched solver trades that
robustness for throughput where thousands of small systems are solved
at once, the local fits and the search candidates. Matrix products
(GEMM) build the systems, W @ BatchedDesign.outer and W @
BatchedDesign.xy per weight row (local._local_systems builds them block
by block). solve_wls_batched solves a stack in one vectorized Cholesky
pass, one numpy call a step over all systems (cheaper than LAPACK per
system in a stack, dearer alone at p > 2); eigvalsh judges the rows its
condition bound cannot clear, and a ridge solves those above CONDITION_LIMIT.

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

    _factor solves each row as beta = L^-T (L^-1 c), N = LL', and bounds
    cond(N). eigvalsh judges a row whose bound is above CONDITION_LIMIT /
    2 or not finite (a refused factor's is not): lambda_max / lambda_min,
    infinite when lambda_min <= 0, above CONDITION_LIMIT flags it; a
    non-finite cell flags it unjudged. So the flags are eigvalsh's alone.
    Flagged rows, in `regularized`, get ridge = RIDGE_SCALE * trace / p
    and are solved by LU, as are cleared rows without a finite bound;
    rows whose ridge is not finite and positive, or that LU cannot
    solve, are flagged in `failed` and zeroed. No row depends on its batch.

    Returns (betas (m, p), regularized (m,) bool, failed (m,) bool).
    """
    N = np.ascontiguousarray(N, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    if c.ndim != 2 or N.shape != c.shape + c.shape[-1:]:
        raise DimensionError(f"N is {N.shape} but c is {c.shape}")
    m, p = c.shape
    betas, bound = _factor(N, c)
    bad = _ill_conditioned(N, bound)
    lu, failed = bad | ~np.isfinite(bound), np.zeros(m, dtype=bool)
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
    failed |= ~np.isfinite(betas).all(axis=1)
    betas[failed] = 0.0
    return betas, bad & ~failed, failed


def _factor(N, c, F=None):
    """(betas, bound) of N (m, p, p), c (m, p). F (p, p, m), new unless
    given, starts as N and Y (p, m) as -c', each cell an m-vector; each
    step is one elementwise numpy operation over all m systems, so no
    row's betas depend on its batch. Column j of L = chol(N) turns row j
    of F into L^-1's and updates the rows below and Y, which ends as
    (L^-T L^-1 c)'; products go through one (p, m) scratch S. A pivot
    not positive leaves a row NaN or inf. bound ||N||_F ||L^-1||_F^2 is
    in [cond_2(N), p^1.5 cond_2(N)]; its last bits may vary by batch."""
    m, p = c.shape
    F = np.empty((p, p, m)) if F is None else F
    S, Y = np.empty((p, m)), np.negative(c.T, order="C")
    F[:] = N.transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        for j in range(p):
            d = np.sqrt(F[j, j], out=S[0])
            if j + 1 < p:  # L's column j, right of row j's diagonal
                np.divide(F[j + 1:, j], d, out=F[j, j + 1:])
                F[j + 1:, j] = 0.0
            Y[j] /= d
            F[j, j] = 1.0
            F[j, :j + 1] /= d
            for i in range(j + 1, p):
                F[i, :i + 1] -= np.multiply(F[j, i], F[j, :i + 1],
                                            out=S[:i + 1])
            np.multiply(Y[j], F[j], out=S)
            Y[j], F[j, j + 1:] = 0.0, 0.0
            Y -= S
        bound = np.einsum("ijm,ijm->m", F, F, out=S[0])
        del F  # before betas are copied: one stack is held at a time
        bound *= np.sqrt(np.einsum("mij,mij->m", N, N))
    return np.ascontiguousarray(Y.T), bound


def _ill_conditioned(N, bound):
    """Rows of N whose eigvalsh estimate lambda_max / lambda_min is not
    finite or above CONDITION_LIMIT, or with a non-finite cell, which
    eigvalsh cannot judge; only rows `bound` cannot clear are judged."""
    bad = ~(bound <= CONDITION_LIMIT / 2)
    if bad.any():
        judged = np.flatnonzero(bad)[np.isfinite(N[bad]).all(axis=(1, 2))]
        lo, hi = np.linalg.eigvalsh(N[judged])[:, [0, -1]].T
        with np.errstate(all="ignore"):
            conds = np.where(lo > 0, hi / lo, np.inf)
        bad[judged] = ~np.isfinite(conds) | (conds > CONDITION_LIMIT)
    return bad
