"""Weighted least squares: stable solver, batched solver, OLS."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwreg import wls
from cwreg.errors import (
    DegenerateWeightsError,
    DimensionError,
    ParameterError,
    SingularFitError,
)
from cwreg import local as cwreg_local
from cwreg.local import fit_cwr
from cwreg.wls import (
    CONDITION_LIMIT,
    BatchedDesign,
    design_matrix,
    fit_ols,
    predict,
    solve_wls,
)

from conftest import brute_force_wls, random_table


def solve_wls_batched(X, y, W):
    """The batched solver on the design built from X and y."""
    return wls.solve_wls_batched(BatchedDesign(X, y), W)


def random_system(rng, n=None, p=None, weight_floor=0.05):
    n = n or int(rng.integers(8, 40))
    p = p or int(rng.integers(1, 5))
    X = design_matrix(rng.normal(size=(n, p)))
    y = rng.normal(size=n)
    w = rng.uniform(weight_floor, 2.0, size=n)
    return X, y, w


class TestDesignMatrix:
    def test_prepends_intercept_column(self):
        X = design_matrix([[2.0], [3.0]])
        np.testing.assert_array_equal(X, [[1.0, 2.0], [1.0, 3.0]])

    def test_no_covariates_gives_intercept_only(self):
        X = design_matrix(np.empty((4, 0)))
        np.testing.assert_array_equal(X, np.ones((4, 1)))


class TestSolveWls:
    def test_matches_summation_oracle(self):
        # Element-by-element normal equations, solved with a plain
        # inverse, agree with the decomposition path.
        rng = np.random.default_rng(42)
        for _ in range(200):
            X, y, w = random_system(rng)
            np.testing.assert_allclose(solve_wls(X, y, w),
                                       brute_force_wls(X, y, w),
                                       rtol=1e-8, atol=1e-10)

    def test_exact_interpolation_two_points(self):
        # Line through (0, 1) and (1, 3): intercept 1, slope 2.
        X = design_matrix([[0.0], [1.0]])
        beta = solve_wls(X, [1.0, 3.0], [1.0, 1.0])
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_weight_rescaling_invariance(self):
        # Multiplying all weights by a constant changes nothing.
        rng = np.random.default_rng(5)
        X, y, w = random_system(rng, n=25, p=3)
        base = solve_wls(X, y, w)
        for c in (1e-6, 42.0, 1e6):
            np.testing.assert_allclose(solve_wls(X, y, c * w), base,
                                       rtol=1e-8)

    def test_zero_weight_rows_are_ignored(self):
        rng = np.random.default_rng(6)
        X, y, w = random_system(rng, n=30, p=2)
        w2 = w.copy()
        w2[10:] = 0.0
        np.testing.assert_allclose(solve_wls(X, y, w2),
                                   solve_wls(X[:10], y[:10], w[:10]),
                                   rtol=1e-9)

    def test_residual_orthogonality(self):
        # At the optimum, X'W(y - X beta) = 0.
        rng = np.random.default_rng(7)
        for _ in range(50):
            X, y, w = random_system(rng)
            beta = solve_wls(X, y, w)
            grad = X.T @ (w * (y - X @ beta))
            scale = max(1.0, float(np.abs(X.T @ (w * y)).max()))
            np.testing.assert_allclose(grad / scale, 0.0, atol=1e-9)

    def test_singular_design_refused(self):
        # Duplicated column makes X'WX rank deficient.
        base = np.ones((10, 1)) * np.arange(10)[:, None]
        X = np.hstack([np.ones((10, 1)), base, base])
        with pytest.raises(SingularFitError):
            solve_wls(X, np.arange(10.0), np.ones(10))

    def test_all_zero_weights_rejected(self):
        X = design_matrix([[1.0], [2.0], [3.0]])
        with pytest.raises(DegenerateWeightsError):
            solve_wls(X, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    def test_negative_weights_rejected(self):
        X = design_matrix([[1.0], [2.0], [3.0]])
        with pytest.raises(ParameterError):
            solve_wls(X, [1.0, 2.0, 3.0], [1.0, -1.0, 1.0])

    def test_shape_mismatches_rejected(self):
        X = design_matrix([[1.0], [2.0], [3.0]])
        with pytest.raises(DimensionError):
            solve_wls(X, [1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(DimensionError):
            solve_wls(X, [1.0, 2.0, 3.0], [1.0, 1.0])

    def test_non_finite_inputs_rejected(self):
        X = design_matrix([[1.0], [2.0], [3.0]])
        with pytest.raises(ParameterError):
            solve_wls(X, [1.0, np.nan, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            solve_wls(X, [1.0, 2.0, 3.0], [1.0, np.inf, 1.0])


class TestFitOls:
    def test_recovers_noiseless_coefficients(self):
        rng = np.random.default_rng(9)
        X = design_matrix(rng.normal(size=(50, 3)))
        beta_true = np.array([4.0, -2.0, 0.5, 1.25])
        beta = fit_ols(X, X @ beta_true)
        np.testing.assert_allclose(beta, beta_true, atol=1e-10)

    def test_equals_unit_weight_wls(self):
        rng = np.random.default_rng(10)
        X, y, _ = random_system(rng, n=30, p=2)
        np.testing.assert_allclose(fit_ols(X, y),
                                   solve_wls(X, y, np.ones(len(y))),
                                   rtol=1e-12)


class TestPredict:
    def test_matrix_vector_product(self):
        X = design_matrix([[1.0], [2.0]])
        np.testing.assert_allclose(predict(X, [1.0, 3.0]), [4.0, 7.0])

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            predict(design_matrix([[1.0]]), [1.0, 2.0, 3.0])


class TestSolveWlsBatched:
    def test_matches_stable_solver(self):
        # The throughput path must agree with the per-system stable
        # path on well-conditioned problems.
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(10, 30))
            p = int(rng.integers(1, 4))
            X = design_matrix(rng.normal(size=(n, p)))
            y = rng.normal(size=n)
            W = rng.uniform(0.05, 2.0, size=(7, n))
            betas, regularized, failed = solve_wls_batched(X, y, W)
            assert not regularized.any()
            assert not failed.any()
            for i in range(7):
                np.testing.assert_allclose(betas[i], solve_wls(X, y, W[i]),
                                           rtol=1e-8, atol=1e-10)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(12)
        X = design_matrix(rng.normal(size=(20, 2)))
        y = rng.normal(size=20)
        W = rng.uniform(0.1, 1.0, size=(5, 20))
        betas, _, _ = solve_wls_batched(X, y, W)
        for i in range(5):
            np.testing.assert_allclose(betas[i], brute_force_wls(X, y, W[i]),
                                       rtol=1e-8)

    def test_singular_rows_flagged_regularized(self):
        base = np.arange(12.0)[:, None]
        X = np.hstack([np.ones((12, 1)), base, base])
        y = np.arange(12.0)
        W = np.ones((3, 12))
        betas, regularized, failed = solve_wls_batched(X, y, W)
        assert regularized.all()
        assert not failed.any()
        assert np.all(np.isfinite(betas))

    def test_all_zero_weight_row_fails_not_raises(self):
        X = design_matrix(np.arange(6.0)[:, None])
        y = np.arange(6.0)
        W = np.vstack([np.ones(6), np.zeros(6)])
        betas, _, failed = solve_wls_batched(X, y, W)
        assert not failed[0]
        assert failed[1]
        np.testing.assert_allclose(betas[0], [0.0, 1.0], atol=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_normal_matrix_fails_silently(self):
        # x1 * 1e155 squares past the float range, so every trace and
        # every ridge is infinite or NaN: no row can be solved.
        rng = np.random.default_rng(9)
        X = design_matrix(rng.normal(size=(20, 1)) * 1e155)
        y = rng.normal(size=20)
        W = rng.uniform(0.1, 1.0, size=(4, 20))
        W[1, 3] = 0.0
        betas, regularized, failed = solve_wls_batched(X, y, W)
        assert failed.all()
        assert not regularized.any()
        np.testing.assert_array_equal(betas, 0.0)

    def test_condition_flags_follow_svd_condition_number(self):
        # The last covariate is zero on the first half of the rows, so
        # weight eps on the second half sets cond(X'WX) to about 14 / eps,
        # from about 1e6 to 1e16. eps = 0 leaves X'WX exactly singular
        # (a zero eigenvalue) and the last system carries no weight.
        rng = np.random.default_rng(7)
        n = 40
        b = np.zeros(n)
        b[n // 2:] = rng.normal(size=n // 2)
        X = np.column_stack([np.ones(n), rng.normal(size=n), b])
        y = rng.normal(size=n)
        eps = np.append(np.logspace(-6, -16, 21), 0.0)
        W = np.ones((eps.size + 1, n))
        W[:-1, n // 2:] = eps[:, None]
        W[-1] = 0.0
        conds = np.linalg.cond(np.einsum("ij,jk,jl->ikl", W[:-2], X, X))
        assert conds.min() < 1e7 and conds.max() > 1e16
        # No system sits within 20% of the limit, where the SVD and the
        # eigenvalue estimates could round to different sides.
        assert np.all(np.abs(np.log(conds / CONDITION_LIMIT)) > np.log(1.2))
        betas, regularized, failed = solve_wls_batched(X, y, W)
        np.testing.assert_array_equal(regularized[:-2],
                                      conds > CONDITION_LIMIT)
        assert regularized[-2] and not failed[-2]
        assert failed[-1] and not regularized[-1]
        assert not failed[:-1].any()
        assert np.all(np.isfinite(betas))
        np.testing.assert_array_equal(betas[-1], 0.0)

    def test_stacked_weights_equal_one_call_per_matrix(self):
        # A (k, m, n) stack solves its k * m systems in order, with the
        # numbers k separate calls give: regularized and failed rows too.
        rng = np.random.default_rng(8)
        n = 30
        b = np.zeros(n)
        b[n // 2:] = rng.normal(size=n // 2)
        X = np.column_stack([np.ones(n), rng.normal(size=n), b])
        y = rng.normal(size=n)
        W = rng.uniform(0.1, 1.0, size=(3, 10, n))
        W[0, 2, n // 2:] = 1e-16
        W[1, 4] = 0.0
        stacked = solve_wls_batched(X, y, W)
        one_by_one = [solve_wls_batched(X, y, Wk) for Wk in W]
        assert stacked[1].any() and stacked[2].any()
        for got, parts in zip(stacked, zip(*one_by_one)):
            assert got.shape[0] == 30
            assert got.tobytes() == np.concatenate(parts).tobytes()


def reference_ill_conditioned(N, inv):
    """The condition rule without the Cholesky screen: eigvalsh on every
    row, flagging estimates that are not finite or exceed the limit."""
    eig = np.linalg.eigvalsh(N)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(all="ignore"):
        conds = np.where(lo > 0, hi / lo, np.inf)
    return ~np.isfinite(conds) | (conds > CONDITION_LIMIT)


ROW_KINDS = ("conditioned", "near-limit", "singular", "zero-weight")


@st.composite
def conditioned_batches(draw):
    """(X, y, W) whose normal matrices have chosen condition numbers.

    X stacks a random orthogonal p x p block Q over the identity, so a
    row of W weighting only Q gives X'WX = Q' diag(w) Q, with condition
    max(w) / min(w) up to rounding, and a row weighting only the
    identity gives diag(w) exactly. Rows are drawn from ROW_KINDS:
    condition numbers from 1 to 1e20, 1e12 * (1 +- 1e-3), exactly
    singular (a zero weight on the identity block) and all-zero weight.
    A batch may hold one row Cholesky refuses among well-conditioned
    ones, and it has 1 to 63 rows or 64 to 192.
    """
    p = draw(st.integers(2, 20))
    cut = 64
    m = draw(st.one_of(st.integers(1, max(1, cut - 1)),
                       st.integers(cut, cut + 128)))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1,
                          max_size=len(ROW_KINDS), unique=True))
    refuse_one = draw(st.sampled_from([None, "singular", "zero-weight"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
    X = np.vstack([Q, np.eye(p)])
    y = rng.normal(size=2 * p)
    rows = rng.choice(kinds, size=m)
    if refuse_one:
        rows[rng.integers(m)] = refuse_one
    W = np.zeros((m, 2 * p))
    for i, kind in enumerate(rows):
        block = W[i, :p] if rng.random() < 0.5 else W[i, p:]
        if kind == "conditioned":
            cond = 10.0 ** rng.uniform(0, 20)
        elif kind == "near-limit":
            cond = CONDITION_LIMIT * (1 + rng.uniform(-1e-3, 1e-3))
        if kind in ("conditioned", "near-limit"):
            w = np.geomspace(1.0, 1.0 / cond, p)
            w[1:-1] = rng.uniform(w[-1], 1.0, size=p - 2)
            block[:] = rng.permutation(w) * 10.0 ** rng.uniform(-3, 3)
        elif kind == "singular":
            W[i, p:] = rng.uniform(0.1, 2.0, size=p)
            W[i, p + rng.integers(p)] = 0.0
    return X, y, W


class TestConditionScreen:
    """The Cholesky screen flags the rows the eigvalsh rule flags."""

    @settings(max_examples=300, deadline=None)
    @given(conditioned_batches())
    def test_equal_to_eigvalsh_rule(self, batch):
        X, y, W = batch
        with mock.patch.object(wls, "_ill_conditioned",
                               reference_ill_conditioned):
            expected = solve_wls_batched(X, y, W)
        got = solve_wls_batched(X, y, W)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()

    def test_bound_is_above_the_condition_number(self):
        # ||N||_F ||L^-1||_F^2 lies in [cond, p^1.5 cond]. Condition
        # numbers stay below about 1e9, where both sides round to
        # within 1e-6 of the truth.
        rng = np.random.default_rng(3)
        for p in (2, 7, 20):
            A = rng.normal(size=(100, p, p))
            A[:, :, 0] *= 10.0 ** rng.uniform(-3, 0, size=(100, 1))
            N = A @ A.transpose(0, 2, 1)
            conds = np.linalg.cond(N)
            assert conds.max() > 1e5
            bound = wls._condition_bound(N, wls._inverse_factor(N))
            assert np.all(bound >= conds * (1 - 1e-6))
            assert np.all(bound <= conds * p ** 1.5 * (1 + 1e-6))

    def test_refused_cholesky_gives_no_bound(self):
        N = np.tile(np.eye(3), (8, 1, 1))
        N[5] = 0.0
        assert wls._inverse_factor(N) is None

    def test_default_search_sends_few_systems_to_eigvalsh(self, monkeypatch):
        # n = 160, p = 3: every solve but the final fit stacks 4 kernels
        # (640 systems), and the final fit has 160.
        systems, checked = [], []
        eigvalsh, solve = np.linalg.eigvalsh, cwreg_local.solve_wls_batched

        def counting_eigvalsh(a):
            checked.append(len(a))
            return eigvalsh(a)

        def counting_solve(design, W):
            result = solve(design, W)
            systems.append(len(result[0]))
            return result

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(cwreg_local, "solve_wls_batched", counting_solve)
        fit_cwr(random_table(n=160, p=2, seed=49), ["x1", "x2"])
        assert sum(systems) == (101 * 20 + 1) * 160
        assert sum(checked) <= 0.02 * sum(systems)

    def test_screen_is_silent(self):
        # diag(1e150, 1e-250, 1) has ||N||_F = 1e150 and ||L^-1||_F^2 =
        # 1e250: their product overflows to inf, and the row goes to
        # eigvalsh.
        X = np.vstack([np.eye(3), np.eye(3)])
        y = np.arange(6.0)
        W = np.ones((64, 6))
        W[0] = [0.0, 0.0, 0.0, 1e150, 1e-250, 1.0]
        W[1] = [0.0, 0.0, 0.0, 1.0, 1e-15, 1.0]
        N = np.einsum("mi,ij,ik->mjk", W, X, X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = wls._condition_bound(N, wls._inverse_factor(N))
            betas, regularized, failed = solve_wls_batched(X, y, W)
        assert bound[0] == np.inf and np.all(np.isfinite(bound[1:]))
        assert regularized[:2].all() and not regularized[2:].any()
        assert not failed.any()


class TestFactorSolve:
    """Rows the screen clears are solved through its Cholesky factor."""

    @settings(max_examples=300, deadline=None)
    @given(conditioned_batches())
    def test_cleared_rows_match_weighted_lstsq(self, batch):
        # Solved as L^-T (L^-1 c), a cleared row's coefficients are off
        # by at most a small multiple of cond(X'WX) * eps relative to
        # the rank-revealing solve of the square-root-weighted system.
        X, y, W = batch
        betas, regularized, failed = solve_wls_batched(X, y, W)
        eps = np.finfo(float).eps
        for i in np.flatnonzero(~regularized & ~failed):
            sw = np.sqrt(W[i])
            expected = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
            cond = np.linalg.cond(X.T @ (X * W[i][:, None]))
            err = np.max(np.abs(betas[i] - expected))
            assert err <= 10 * X.shape[1] * cond * eps * np.max(
                np.abs(expected))

    @pytest.mark.parametrize("rows", [1, 30, 70])
    def test_stacked_call_equals_part_by_part_calls(self, rows):
        # A (4, rows, n) stack against one call per part. Part 1 holds a
        # zero-weight row, so Cholesky refuses the stacked batch and
        # eigvalsh judges all of it; parts 2 and 3 hold a row just below
        # and just above the 1e12 limit, which only eigvalsh can judge.
        # Every row's numbers are the same wherever it is solved.
        p = 4
        rng = np.random.default_rng(21)
        Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
        X = np.vstack([Q, np.eye(p)])
        y = rng.normal(size=2 * p)
        W = rng.uniform(0.1, 2.0, size=(4, rows, 2 * p))
        at = rows // 2
        W[1, at] = 0.0
        for part, cond in ((2, 0.99e12), (3, 1.01e12)):
            W[part, at, :p] = 0.0
            W[part, at, p:] = np.geomspace(1.0, 1.0 / cond, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = solve_wls_batched(X, y, W)
            parts = [solve_wls_batched(X, y, Wk) for Wk in W]
        flagged = np.zeros((4, rows), dtype=bool)
        flagged[1, at] = True
        np.testing.assert_array_equal(stacked[2], flagged.ravel())
        flagged[1, at], flagged[3, at] = False, True
        np.testing.assert_array_equal(stacked[1], flagged.ravel())
        for got, pieces in zip(stacked, zip(*parts)):
            assert got.tobytes() == np.concatenate(pieces).tobytes()
