"""Regression trees, least-squares boosting, predictor importance."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwreg.ensemble import (
    BoostedEnsemble,
    ImportanceReport,
    TreeNode,
    fit_lsboost,
    fit_tree,
    predictor_importance,
    select_factors,
)
from cwreg.errors import DimensionError, ParameterError


def exhaustive_best_split(X, y, min_leaf):
    """Try every (feature, midpoint) split directly.

    Independent oracle for the vectorized split search: computes each
    candidate's SSE reduction from scratch. Ties resolved the same way
    (lowest feature first, then lowest threshold).
    """
    n = len(y)
    base = float(np.sum((y - y.mean()) ** 2))
    best = None
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2.0
            mask = X[:, j] <= t
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            sse = (np.sum((y[mask] - y[mask].mean()) ** 2)
                   + np.sum((y[~mask] - y[~mask].mean()) ** 2))
            gain = base - float(sse)
            if gain > 0 and (best is None or gain > best[0] + 1e-12):
                best = (gain, j, t)
    return best


def reference_best_split(X, y, min_leaf):
    """Split search with one stable argsort per feature at every node.

    Features are scanned in a Python loop and each node's rows are
    copied. The bit-for-bit reference for the library's search, which
    sorts once per tree and scores all features in one pass.
    """
    n = y.shape[0]
    base = float(np.sum((y - y.mean()) ** 2))
    total = float(y.sum())
    total_sq = float(np.sum(y ** 2))
    best = None
    positions = np.arange(1, n)  # left side takes the first `pos` sorted rows
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        valid = xs[:-1] != xs[1:]
        valid &= (positions >= min_leaf) & (n - positions >= min_leaf)
        if not np.any(valid):
            continue
        left_sum = np.cumsum(ys)[:-1]
        left_sq = np.cumsum(ys ** 2)[:-1]
        sse_left = left_sq - left_sum ** 2 / positions
        sse_right = ((total_sq - left_sq)
                     - (total - left_sum) ** 2 / (n - positions))
        gains = np.where(valid, base - sse_left - sse_right, -np.inf)
        t = int(np.argmax(gains))
        gain = float(gains[t])
        if gain <= 0:
            continue
        if best is None or gain > best[0]:
            lo, hi = xs[t], xs[t + 1]
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:
                threshold = lo
            best = (gain, j, float(threshold))
    return best


def reference_tree(X, y, max_depth, min_leaf, depth=0):
    node = TreeNode(value=float(y.mean()))
    if depth >= max_depth or y.shape[0] < 2 * min_leaf or np.all(y == y[0]):
        return node
    found = reference_best_split(X, y, min_leaf)
    if found is None:
        return node
    node.gain, node.feature, node.threshold = found
    mask = X[:, node.feature] <= node.threshold
    node.left = reference_tree(X[mask], y[mask], max_depth, min_leaf,
                               depth + 1)
    node.right = reference_tree(X[~mask], y[~mask], max_depth, min_leaf,
                                depth + 1)
    return node


def reference_lsboost(X, y, n_trees, shrinkage, max_depth, min_leaf):
    f0 = float(y.mean())
    current = np.full(y.shape[0], f0)
    trees, mse = [], []
    for _ in range(n_trees):
        tree = reference_tree(X, y - current, max_depth, min_leaf)
        current = current + shrinkage * tree.predict(X)
        trees.append(tree)
        mse.append(float(np.mean((y - current) ** 2)))
    return BoostedEnsemble(f0=f0, trees=trees, shrinkage=shrinkage,
                           max_depth=max_depth, min_leaf=min_leaf,
                           n_features=X.shape[1], train_mse=mse)


def reference_importance(ensemble):
    """Split gains summed by a recursive pre-order walk of each tree."""
    raw = np.zeros(ensemble.n_features)

    def walk(node):
        if not node.is_leaf:
            raw[node.feature] += node.gain
            walk(node.left)
            walk(node.right)

    for tree in ensemble.trees:
        walk(tree)
    return raw


@st.composite
def tie_heavy_problems(draw):
    """Small (X, y, max_depth, min_leaf) cases full of ties.

    Columns take few distinct values; some duplicate an earlier column
    or are constant, so equal gains across features and thresholds are
    common.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(seed)
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["few-values", "normal", "duplicate", "constant"]),
            min_size=1, max_size=6)):
        if kind == "duplicate" and columns:
            columns.append(columns[int(rng.integers(len(columns)))])
        elif kind == "constant":
            columns.append(np.full(n, float(rng.integers(-2, 3))))
        elif kind == "normal":
            columns.append(np.round(rng.normal(size=n), 1))
        else:
            columns.append(rng.integers(0, 3, size=n).astype(float))
    X = np.column_stack(columns)
    y = (rng.integers(0, 4, size=n).astype(float)
         if draw(st.booleans()) else rng.normal(size=n))
    max_depth = draw(st.sampled_from([1, 3, 5]))
    min_leaf = draw(st.integers(1, max(1, min(5, n // 2))))
    return X, y, max_depth, min_leaf


def leaf_counts(tree, X):
    """Training-row count routed into each leaf."""
    counts = []

    def walk(node, idx):
        if node.is_leaf:
            counts.append(len(idx))
            return
        mask = X[idx, node.feature] <= node.threshold
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(tree, np.arange(X.shape[0]))
    return counts


class TestFitTree:
    def test_root_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(8, 30))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.normal(size=n)
            tree = fit_tree(X, y, max_depth=1, min_leaf=2)
            expected = exhaustive_best_split(X, y, min_leaf=2)
            if expected is None:
                assert tree.is_leaf
                continue
            gain, feature, threshold = expected
            assert tree.feature == feature
            assert tree.threshold == pytest.approx(threshold, abs=1e-12)
            assert tree.gain == pytest.approx(gain, rel=1e-10)

    def test_hand_worked_eight_point_split(self):
        # One informative feature: y jumps from 0 to 10 at x = 3.5.
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
        tree = fit_tree(X, y, max_depth=2, min_leaf=2)
        assert tree.feature == 0
        assert tree.threshold == pytest.approx(3.5)
        # Perfect split removes the whole SSE: 8 * (5^2) = 200.
        assert tree.gain == pytest.approx(200.0)
        assert tree.left.is_leaf and tree.left.value == pytest.approx(0.0)
        assert tree.right.is_leaf and tree.right.value == pytest.approx(10.0)

    def test_constant_response_returns_single_leaf(self):
        X = np.arange(12.0).reshape(-1, 1)
        tree = fit_tree(X, np.full(12, 3.25), max_depth=3, min_leaf=2)
        assert tree.is_leaf
        assert tree.value == pytest.approx(3.25)

    def test_leaf_value_is_subset_mean(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        tree = fit_tree(X, y, max_depth=3, min_leaf=4)
        # Routing the training rows back through the tree must yield
        # each leaf's training mean, so residuals sum to zero per leaf.
        pred = tree.predict(X)
        for value in np.unique(pred):
            mask = pred == value
            assert y[mask].mean() == pytest.approx(value, rel=1e-10)

    def test_min_leaf_respected_everywhere(self):
        rng = np.random.default_rng(19)
        for min_leaf in (1, 3, 6):
            X = rng.normal(size=(50, 2))
            y = rng.normal(size=50)
            tree = fit_tree(X, y, max_depth=4, min_leaf=min_leaf)
            assert min(leaf_counts(tree, X)) >= min_leaf

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(200, 2))
        y = rng.normal(size=200)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        for max_depth in (1, 2, 3):
            tree = fit_tree(X, y, max_depth=max_depth, min_leaf=1)
            assert depth(tree) <= max_depth

    def test_single_deep_tree_interpolates(self):
        # min_leaf=1 and unconstrained depth: any leaf with two
        # distinct values still has a positive-gain split, so the tree
        # keeps growing until training error reaches zero. Greedy
        # splits can be lopsided, hence the depth budget of n - 1.
        rng = np.random.default_rng(21)
        X = rng.permutation(np.arange(16.0)).reshape(-1, 1)
        y = rng.normal(size=16)
        tree = fit_tree(X, y, max_depth=15, min_leaf=1)
        np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)

    def test_duplicate_feature_values_never_split_apart(self):
        # Split thresholds fall between distinct values, so identical
        # rows always land in the same leaf.
        X = np.array([[1.0], [1.0], [1.0], [2.0], [2.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        tree = fit_tree(X, y, max_depth=5, min_leaf=1)
        pred = tree.predict(X)
        assert pred[0] == pred[1] == pred[2]
        assert pred[3] == pred[4] == pred[5]

    def test_parameter_validation(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        with pytest.raises(ParameterError):
            fit_tree(X, y, max_depth=0)
        with pytest.raises(ParameterError):
            fit_tree(X, y, min_leaf=0)
        with pytest.raises(ParameterError):
            fit_tree(X, y, min_leaf=6)  # needs n >= 2 * min_leaf
        with pytest.raises(DimensionError):
            fit_tree(X, y[:5])
        with pytest.raises(ParameterError):
            fit_tree(X, np.append(y[:9], np.nan))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        tree = fit_tree(X, y, max_depth=3, min_leaf=2)
        clone = TreeNode.from_dict(tree.to_dict(), X.shape[1])
        Q = rng.normal(size=(50, 2))
        np.testing.assert_array_equal(tree.predict(Q), clone.predict(Q))


class TestPresortedSearch:
    """Trees grown from one presort equal the per-node-argsort search."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_problems())
    def test_equal_to_per_node_argsort_reference(self, problem):
        X, y, max_depth, min_leaf = problem
        assert (fit_tree(X, y, max_depth, min_leaf).to_dict()
                == reference_tree(X, y, max_depth, min_leaf).to_dict())
        ensemble = fit_lsboost(X, y, n_trees=20, shrinkage=0.1,
                               max_depth=max_depth, min_leaf=min_leaf)
        expected = reference_lsboost(X, y, 20, 0.1, max_depth, min_leaf)
        assert ensemble.to_dict() == expected.to_dict()
        np.testing.assert_array_equal(predictor_importance(ensemble).raw,
                                      reference_importance(expected))

    def test_equal_gains_go_to_lowest_feature_then_threshold(self):
        # Column 1 duplicates column 0 and column 2 mirrors it, so all
        # three offer the same best gain; y makes two thresholds of
        # column 0 tie as well.
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x, -x])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        tree = fit_tree(X, y, max_depth=1, min_leaf=1)
        assert (tree.feature, tree.threshold) == (0, 0.5)
        assert tree.to_dict() == reference_tree(X, y, 1, 1).to_dict()


class TestFitLsboost:
    def test_matches_stagewise_hand_simulation(self):
        # The boosting loop is plain arithmetic around fit_tree; verify
        # it against an explicit re-simulation.
        rng = np.random.default_rng(23)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60) + 2.0 * X[:, 0]
        ens = fit_lsboost(X, y, n_trees=6, shrinkage=0.3, max_depth=2,
                          min_leaf=3)
        current = np.full(60, y.mean())
        for m in range(6):
            tree = fit_tree(X, y - current, max_depth=2, min_leaf=3)
            current = current + 0.3 * tree.predict(X)
            assert ens.train_mse[m] == pytest.approx(
                float(np.mean((y - current) ** 2)), rel=1e-12)
        np.testing.assert_allclose(ens.predict(X), current, atol=1e-12)

    def test_training_mse_non_increasing(self):
        rng = np.random.default_rng(24)
        for trial in range(10):
            X = rng.normal(size=(50, 2))
            y = rng.normal(size=50)
            ens = fit_lsboost(X, y, n_trees=30, shrinkage=0.2, max_depth=2,
                              min_leaf=2)
            mse = np.asarray(ens.train_mse)
            assert np.all(np.diff(mse) <= 1e-12)

    def test_first_stage_beats_mean_predictor(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(80, 2))
        y = X[:, 0] * 3.0 + rng.normal(scale=0.1, size=80)
        ens = fit_lsboost(X, y, n_trees=1, shrinkage=1.0, max_depth=2,
                          min_leaf=5)
        assert ens.train_mse[0] < np.mean((y - y.mean()) ** 2)

    def test_constant_response_stays_at_mean(self):
        X = np.arange(20.0).reshape(-1, 1)
        ens = fit_lsboost(X, np.full(20, 7.0), n_trees=5, shrinkage=0.5,
                          max_depth=2, min_leaf=2)
        np.testing.assert_allclose(ens.predict(X), 7.0, atol=1e-12)
        assert all(m == pytest.approx(0.0, abs=1e-20) for m in ens.train_mse)

    def test_shrinkage_validation(self):
        X = np.arange(20.0).reshape(-1, 1)
        y = np.arange(20.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                fit_lsboost(X, y, shrinkage=bad)
        with pytest.raises(ParameterError):
            fit_lsboost(X, y, n_trees=0)
        # An ensemble built directly, as loading builds one, meets the
        # same rule.
        good = dict(f0=0.0, trees=[], shrinkage=0.1, max_depth=3,
                    min_leaf=5, n_features=1)
        BoostedEnsemble(**good)
        for key, bad in (("shrinkage", 0.0), ("shrinkage", -1.0),
                         ("shrinkage", 1.5), ("max_depth", 0),
                         ("max_depth", -5), ("min_leaf", 0)):
            with pytest.raises(ParameterError):
                BoostedEnsemble(**{**good, key: bad})

    def test_non_finite_inputs_and_residuals_rejected(self):
        # Checked once for the ensemble, and at each stage's residuals:
        # the mean of these finite responses overflows to inf.
        X = np.arange(20.0).reshape(-1, 1)
        bad_X = X.copy()
        bad_X[3] = np.nan
        for X_, y_ in ((bad_X, np.arange(20.0)), (X, np.full(20, 1e308))):
            with np.errstate(over="ignore"), \
                    pytest.raises(ParameterError, match="finite"):
                fit_lsboost(X_, y_)

    def test_feature_name_length_checked(self):
        X = np.arange(20.0).reshape(-1, 1)
        with pytest.raises(DimensionError):
            fit_lsboost(X, np.arange(20.0), feature_names=["a", "b"])

    def test_predict_checks_width(self):
        X = np.arange(20.0).reshape(-1, 1)
        ens = fit_lsboost(X, np.arange(20.0), n_trees=2)
        with pytest.raises(DimensionError):
            ens.predict(np.zeros((3, 2)))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        ens = fit_lsboost(X, y, n_trees=4, shrinkage=0.4,
                          feature_names=["a", "b"])
        clone = BoostedEnsemble.from_dict(ens.to_dict())
        Q = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(ens.predict(Q), clone.predict(Q))
        assert clone.feature_names == ["a", "b"]
        assert clone.train_mse == ens.train_mse


class TestPredictorImportance:
    def test_gains_account_for_mse_drop_single_tree(self):
        # Unshrunk stages predict exact leaf means, so the summed split
        # gains equal the total SSE removed from the training data.
        rng = np.random.default_rng(27)
        X = rng.normal(size=(80, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 2] + rng.normal(scale=0.3, size=80)
        ens = fit_lsboost(X, y, n_trees=12, shrinkage=1.0, max_depth=2,
                          min_leaf=4)
        report = predictor_importance(ens)
        sse_start = float(np.sum((y - y.mean()) ** 2))
        sse_end = len(y) * ens.train_mse[-1]
        assert report.raw.sum() == pytest.approx(sse_start - sse_end,
                                                 rel=1e-8)

    def test_stump_on_single_signal_feature(self):
        rng = np.random.default_rng(28)
        X = np.column_stack([rng.normal(size=100), rng.normal(size=100)])
        y = np.where(X[:, 1] > 0, 5.0, -5.0)
        ens = fit_lsboost(X, y, n_trees=1, shrinkage=1.0, max_depth=1,
                          min_leaf=5)
        report = predictor_importance(ens)
        np.testing.assert_allclose(report.normalized, [0.0, 1.0], atol=1e-15)
        assert report.order == [1, 0]

    def test_normalized_sums_to_one(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(80, 4))
        y = X @ np.array([1.0, 0.5, 0.0, 2.0]) + rng.normal(scale=0.1, size=80)
        report = predictor_importance(
            fit_lsboost(X, y, n_trees=20, shrinkage=0.3))
        assert report.normalized.sum() == pytest.approx(1.0, rel=1e-12)
        assert not report.uninformative

    def test_tie_breaks_by_predictor_index(self):
        report = ImportanceReport(
            names=["a", "b", "c"],
            raw=np.array([1.0, 2.0, 2.0]),
            normalized=np.array([0.2, 0.4, 0.4]),
            order=[],
            uninformative=False,
        )
        # Rebuild through the public path to exercise the ordering.
        ens = BoostedEnsemble(f0=0.0, trees=[], shrinkage=1.0, max_depth=1,
                              min_leaf=1, n_features=3,
                              feature_names=["a", "b", "c"])
        tree_b = TreeNode(value=0.0, feature=1, threshold=0.0, gain=2.0,
                          left=TreeNode(0.0), right=TreeNode(0.0))
        tree_c = TreeNode(value=0.0, feature=2, threshold=0.0, gain=2.0,
                          left=TreeNode(0.0), right=TreeNode(0.0))
        tree_a = TreeNode(value=0.0, feature=0, threshold=0.0, gain=1.0,
                          left=TreeNode(0.0), right=TreeNode(0.0))
        ens.trees = [tree_b, tree_c, tree_a]
        got = predictor_importance(ens)
        assert got.order == [1, 2, 0]
        assert got.ranked_names() == ["b", "c", "a"]

    def test_never_split_ensemble_flagged_uninformative(self):
        X = np.arange(20.0).reshape(-1, 1)
        ens = fit_lsboost(X, np.full(20, 1.0), n_trees=3)
        report = predictor_importance(ens)
        assert report.uninformative
        np.testing.assert_array_equal(report.normalized, [0.0])

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(60, 2))
        y = 3.0 * X[:, 1] + rng.normal(scale=0.1, size=60)
        report = predictor_importance(
            fit_lsboost(X, y, n_trees=5, feature_names=["area", "age"]))
        path = tmp_path / "imp.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["predictor"] == "age"
        assert rows[0]["rank"] == "1"
        assert float(rows[0]["normalized"]) > float(rows[1]["normalized"])


class TestSelectFactors:
    def make_report(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(60, 3))
        y = 2.0 * X[:, 2] + 1.0 * X[:, 0] + rng.normal(scale=0.1, size=60)
        return predictor_importance(
            fit_lsboost(X, y, n_trees=10, feature_names=["a", "b", "c"]))

    def test_top_k_prefix_of_ranking(self):
        report = self.make_report()
        assert select_factors(report, 2) == report.ranked_names()[:2]
        assert select_factors(report, 1) == ["c"]

    def test_bounds_checked(self):
        report = self.make_report()
        with pytest.raises(ParameterError):
            select_factors(report, 0)
        with pytest.raises(ParameterError):
            select_factors(report, 4)
