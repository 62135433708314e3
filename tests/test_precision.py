"""Accuracy of the bandwidth search against an extended-precision oracle.

The oracle recomputes, in np.longdouble, what the float64 search does
for one blend ratio r: the blend of the training distances, the kernel
exp(-(d / h)^2) with each location's own weight zeroed, the normal
equations X'W_iX and X'W_iy, and a solve by Gaussian elimination with
partial pivoting. Its inputs are the float64 training distances and
bandwidth grid the search itself uses, so it measures the search's
arithmetic error alone.

Each unridged candidate's float64 leave-one-out RMSE must lie within a
bound that grows with the worst condition number of its local systems,
and wherever the oracle's winning margin exceeds those bounds the
search must select the oracle's bandwidth. Where np.longdouble is
float64 (eps >= 1e-16) the oracle is no better than the search, so the
module is skipped.
"""

import numpy as np
import pytest

from cwreg.data import (SplitSpec, generate_hedonic, generate_synthetic,
                        split, standardize)
from cwreg.local import _TrainingSide, fit_cwr
from cwreg.wls import design_matrix

from conftest import random_table

LD = np.longdouble
EPS = np.finfo(float).eps

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= 1e-16,
    reason="np.longdouble is no wider than float64 on this platform")


def pivoted_solve(N, c):
    """Solve each N_i b_i = c_i by Gaussian elimination with partial
    pivoting, in the arrays' own precision."""
    m, p = c.shape
    A = np.concatenate([N, c[:, :, None]], axis=2)
    rows = np.arange(m)
    for k in range(p):
        pivot = k + np.argmax(np.abs(A[:, k:, k]), axis=1)
        A[rows, k], A[rows, pivot] = A[rows, pivot], A[rows, k].copy()
        factors = A[:, k + 1:, k] / A[:, k, k][:, None]
        A[:, k + 1:] -= factors[:, :, None] * A[:, k, None, :]
    b = np.zeros((m, p), dtype=A.dtype)
    for k in reversed(range(p)):
        rest = (A[:, k, k + 1:p] * b[:, k + 1:]).sum(axis=1)
        b[:, k] = (A[:, k, p] - rest) / A[:, k, k]
    return b


def oracle_scores(geo, attr, r, X, y, grid):
    """(LOO RMSE, worst local condition number) per bandwidth of grid,
    every step in np.longdouble."""
    D = LD(r) * geo.astype(LD)
    if attr is not None:
        D += (LD(1) - LD(r)) * attr.astype(LD)
    X, y = X.astype(LD), y.astype(LD)
    n, p = X.shape
    outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    scores, conds = [], []
    for h in grid:
        W = np.exp(-np.square(D / LD(h)))
        np.fill_diagonal(W, 0)
        N = (W @ outer).reshape(n, p, p)
        # A system without weight is singular; its candidate is skipped.
        with np.errstate(all="ignore"):
            betas = pivoted_solve(N, W @ (X * y[:, None]))
            residuals = y - (X * betas).sum(axis=1)
            scores.append(float(np.sqrt(np.mean(np.square(residuals)))))
            eig = np.linalg.eigvalsh(N.astype(float))
            conds.append(float(np.max(eig[:, -1] / eig[:, 0])))
    return np.array(scores), conds


def bound(cond, n):
    """Allowed relative error of a float64 score: summing n weighted
    terms costs about n eps, solving a system of condition number cond
    about cond eps."""
    return 4 * (n + cond) * EPS


def attr_split(seed):
    """search-attr's training table: 160 rows, two covariates."""
    table, _ = generate_synthetic("attr", n=200, sigma=2.0, seed=seed)
    return split(table, SplitSpec(train_fraction=0.8, seed=seed))[0]


def hedonic_three(n, seed):
    """Floor area, age and one point-of-interest distance, in raw units,
    so that the local systems are far from well scaled."""
    table, _ = generate_hedonic(n=n, seed=seed)
    return table.with_covariates(table.covariate_names[:3])


CASES = {
    "attr-160": lambda: attr_split(1),
    "random-60": lambda: random_table(n=60, p=2, seed=5),
    "random-200x3": lambda: random_table(n=200, p=3, seed=6),
    "hedonic-120x3": lambda: hedonic_three(120, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("r", [0.0, 0.37, 1.0])
def test_search_scores_match_the_oracle(case, r):
    table = CASES[case]()
    columns = table.default_attribute_columns()
    model = fit_cwr(table, columns, r=r, bandwidth="cv")
    trace = model.traces["bandwidth"]
    transform = None if r == 1.0 else standardize(table, columns)
    geo, _, attr, _ = _TrainingSide(table, transform).distances("max-scale")
    X = design_matrix(table.covariates)
    exact, conds = oracle_scores(geo, attr, r, X, table.y, trace.candidates)
    # A ridged or failed candidate solves another problem than the
    # oracle's: it keeps its float64 score, and it has no error bound.
    unridged = (np.array(trace.n_regularized) + trace.n_failed) == 0
    bounds = np.where(unridged, bound(np.array(conds), table.n), 0.0)
    scores = np.array(trace.scores)
    assert unridged.sum() >= len(scores) // 2
    assert np.all((np.abs(scores - exact) <= bounds * exact)[unridged])
    # The oracle's choice, wherever its margin over every other
    # candidate exceeds what float64 may get wrong about either.
    reference = np.where(unridged, exact, scores)
    best = int(np.argmin(reference))
    others = np.arange(len(scores)) != best
    margins = (reference[others] - reference[best]) / reference[best]
    if np.all(margins > bounds[best] + bounds[others]):
        assert trace.selected == trace.candidates[best]
