"""Regression trees, least-squares boosting, and split-gain importance.

Trees are grown greedily: every split maximizes the reduction in total
squared error, with candidate thresholds at the midpoints between
consecutive sorted unique feature values. A tree, or a whole boosted
ensemble, sorts each feature once, stably; a node's per-feature order
is that presort filtered to its rows, and one array pass scores every
feature's splits. Each node records the reduction its split achieved;
predictor importance is the sum of those reductions per feature across
an ensemble.

Boosting is plain stagewise least squares: start from the response
mean, repeatedly fit a tree to the current residuals and add a
shrunken copy of its predictions. With least-squares leaf values the
training MSE can never increase from one stage to the next.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import _finite_array, _finite_number, _names, _numbers, _write_rows
from .errors import DimensionError, ParameterError


@dataclass
class TreeNode:
    """One node of a regression tree.

    Leaves keep feature/threshold as None. `value` is the mean
    response of the node's training subset; `gain` is the squared
    error removed by the split (0 for leaves).
    """

    value: float
    feature: int | None = None
    threshold: float | None = None
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def predict(self, X) -> np.ndarray:
        X = _finite_array(X, "X", (None, None))
        out = np.empty(X.shape[0])
        self._fill(X, np.arange(X.shape[0]), out)
        return out

    def _fill(self, X, idx, out):
        if self.is_leaf:
            out[idx] = self.value
            return
        mask = X[idx, self.feature] <= self.threshold
        self.left._fill(X, idx[mask], out)
        self.right._fill(X, idx[~mask], out)

    def to_dict(self) -> dict:
        doc = {"value": self.value}
        if not self.is_leaf:
            doc.update(feature=self.feature, threshold=self.threshold,
                       gain=self.gain, left=self.left.to_dict(),
                       right=self.right.to_dict())
        return doc

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "TreeNode":
        """Rebuild a tree; every split feature must index one of
        `n_features` columns, and every number must be finite."""
        node = cls(value=_numbers(doc["value"], "tree value"))
        if doc.keys() != {"value"}:  # a split node
            feature = _numbers(doc["feature"], "tree feature", kind=numbers.Integral)
            if not 0 <= feature < n_features:
                raise ParameterError(f"tree split feature {feature} is not "
                                     f"in [0, {n_features})")
            node.feature = feature
            node.threshold = _numbers(doc["threshold"], "tree threshold")
            node.gain = _numbers(doc["gain"], "tree gain")
            node.left = cls.from_dict(doc["left"], n_features)
            node.right = cls.from_dict(doc["right"], n_features)
        return node


def _best_split(X, y, rows, order, min_leaf):
    """Best (gain, feature, threshold) or None when no split helps.

    `rows` masks the node's rows; column j of `order` lists them by
    feature j, ties in row order. Ties in gain go to the lowest feature,
    then the lowest threshold: argmax down each column of the (m, F)
    gains picks the first maximum, argmax across the column maxima the
    first feature.
    """
    node_y = y[rows]
    n = node_y.shape[0]
    base = float(np.sum((node_y - node_y.mean()) ** 2))
    total = float(node_y.sum())
    total_sq = float(np.sum(node_y ** 2))
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    nl = np.arange(1, n)[:, None]  # left side takes the first `nl` sorted rows
    valid = (xs[:-1] != xs[1:]) & (nl >= min_leaf) & (n - nl >= min_leaf)
    left_sum = np.cumsum(ys, axis=0)[:-1]
    left_sq = np.cumsum(ys ** 2, axis=0)[:-1]
    sse_left = left_sq - left_sum ** 2 / nl
    sse_right = (total_sq - left_sq) - (total - left_sum) ** 2 / (n - nl)
    gains = np.where(valid, base - sse_left - sse_right, -np.inf)
    t = np.argmax(gains, axis=0)
    j = int(np.argmax(gains[t, range(gains.shape[1])]))
    gain = float(gains[t[j], j])
    if gain <= 0:
        return None
    lo, hi = xs[t[j], j], xs[t[j] + 1, j]
    threshold = (lo + hi) / 2.0
    if not lo <= threshold < hi:  # adjacent floats: keep the partition
        threshold = lo
    return gain, j, float(threshold)


def _grow(X, y, rows, order, depth, max_depth, min_leaf):
    node_y = y[rows]
    node = TreeNode(value=float(node_y.mean()))
    if depth >= max_depth or node_y.shape[0] < 2 * min_leaf \
            or np.all(node_y == node_y[0]) or X.shape[1] == 0:
        return node
    found = _best_split(X, y, rows, order, min_leaf)
    if found is None:
        return node
    node.gain, node.feature, node.threshold = found
    left = X[:, node.feature] <= node.threshold
    # Filtering each presorted column keeps it sorted, ties in row order.
    node.left, node.right = (
        _grow(X, y, rows & keep,
              order.T[keep[order.T]].reshape(order.shape[1], -1).T,
              depth + 1, max_depth, min_leaf)
        for keep in (left, ~left))
    return node


def _check_boosting(shrinkage, max_depth, min_leaf) -> None:
    """The boosting settings' rule: 0 < shrinkage <= 1, depth and leaf >= 1."""
    if not 0.0 < shrinkage <= 1.0:
        raise ParameterError(f"shrinkage must be in (0, 1], got {shrinkage}")
    if max_depth < 1:
        raise ParameterError(f"max_depth must be >= 1, got {max_depth}")
    if min_leaf < 1:
        raise ParameterError(f"min_leaf must be >= 1, got {min_leaf}")


def _tree_inputs(X, y, shrinkage, max_depth, min_leaf):
    """Checked settings, (X, y) as float arrays, and X's stable presort."""
    _check_boosting(shrinkage, max_depth, min_leaf)
    X = _finite_array(X, "X", (None, None))
    y = _finite_array(y, "y", (len(X),))
    if len(y) < 2 * min_leaf:
        raise ParameterError(
            f"need at least 2 * min_leaf = {2 * min_leaf} rows, got {len(y)}"
        )
    return X, y, np.argsort(X, axis=0, kind="stable")


def fit_tree(X, y, max_depth: int = 3, min_leaf: int = 5) -> TreeNode:
    """Greedy least-squares regression tree.

    Returns a single leaf when y is constant or no split has positive
    gain. Requires n >= 2 * min_leaf so at least one split is legal.
    """
    X, y, order = _tree_inputs(X, y, 1.0, max_depth, min_leaf)
    return _grow(X, y, np.ones(y.shape[0], dtype=bool), order, 0,
                 max_depth, min_leaf)


@dataclass
class BoostedEnsemble:
    """Stagewise boosted trees: F(x) = f0 + shrinkage * sum_m tree_m(x)."""

    f0: float
    trees: list[TreeNode]
    shrinkage: float
    max_depth: int
    min_leaf: int
    n_features: int
    feature_names: list[str] | None = None
    train_mse: list[float] = field(default_factory=list)

    def __post_init__(self):
        _check_boosting(self.shrinkage, self.max_depth, self.min_leaf)

    def predict(self, X) -> np.ndarray:
        X = _finite_array(X, "X", (None, self.n_features))
        out = np.full(X.shape[0], self.f0)
        for tree in self.trees:
            out += self.shrinkage * tree.predict(X)
        return out

    def to_dict(self) -> dict:
        return {
            "f0": self.f0,
            "shrinkage": self.shrinkage,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "n_features": self.n_features,
            "feature_names": self.feature_names,
            "train_mse": list(self.train_mse),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BoostedEnsemble":
        counts = {key: _numbers(doc[key], key, kind=numbers.Integral)
                  for key in ("max_depth", "min_leaf", "n_features")}
        trees, names = doc["trees"], doc.get("feature_names")
        if not isinstance(trees, list):
            raise ParameterError("ensemble trees must be a list")
        return cls(
            f0=_numbers(doc["f0"], "f0"),
            trees=[TreeNode.from_dict(t, counts["n_features"]) for t in trees],
            shrinkage=_numbers(doc["shrinkage"], "shrinkage"),
            feature_names=(None if names is None
                           else _names(names, "feature_names")),
            train_mse=_numbers(doc.get("train_mse", []), "train_mse",
                               (len(trees),)).tolist(),
            **counts,
        )


def fit_lsboost(X, y, n_trees: int = 100, shrinkage: float = 0.1,
                max_depth: int = 3, min_leaf: int = 5,
                feature_names=None) -> BoostedEnsemble:
    """Least-squares boosting started from the response mean.

    Each stage fits a regression tree to the current residuals and
    adds shrinkage * tree(x) to the running prediction. The recorded
    per-stage training MSE sequence is non-increasing. X is checked
    and presorted once; every stage's tree grows from that order, as
    fit_tree on the residuals would.
    """
    if not (_finite_number(n_trees, numbers.Integral) and n_trees >= 1):
        raise ParameterError(f"n_trees must be an integer >= 1, got {n_trees!r}")
    X, y, order = _tree_inputs(X, y, shrinkage, max_depth, min_leaf)
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise DimensionError(
            f"{len(feature_names)} feature names for {X.shape[1]} features"
        )
    rows = np.ones(y.shape[0], dtype=bool)
    f0 = float(y.mean())
    current = np.full(y.shape[0], f0)
    trees = []
    mse = []
    for _ in range(n_trees):
        residual = y - current
        # Finite data can still overflow here (a huge y's mean is inf).
        if not np.all(np.isfinite(residual)):
            raise ParameterError("X and y must be finite")
        tree = _grow(X, residual, rows, order, 0, max_depth, min_leaf)
        current = current + shrinkage * tree.predict(X)
        trees.append(tree)
        mse.append(float(np.mean((y - current) ** 2)))
    return BoostedEnsemble(
        f0=f0, trees=trees, shrinkage=shrinkage, max_depth=max_depth,
        min_leaf=min_leaf, n_features=X.shape[1],
        feature_names=list(feature_names) if feature_names is not None else None,
        train_mse=mse,
    )


@dataclass
class ImportanceReport:
    """Per-predictor squared-error reductions summed over an ensemble.

    `order` lists predictor indices by descending raw reduction, ties
    broken by ascending predictor index. `uninformative` flags an
    ensemble that never split, in which case the normalized column is
    all zeros.
    """

    names: list[str]
    raw: np.ndarray
    normalized: np.ndarray
    order: list[int]
    uninformative: bool

    def ranked_names(self) -> list[str]:
        return [self.names[i] for i in self.order]

    def to_csv(self, path) -> None:
        _write_rows(path, ["predictor", "raw_reduction", "normalized", "rank"],
                    ([self.names[i], repr(float(self.raw[i])),
                      repr(float(self.normalized[i])), rank]
                     for rank, i in enumerate(self.order, start=1)))


def predictor_importance(ensemble: BoostedEnsemble) -> ImportanceReport:
    """Sum each predictor's split gains over all trees and rank them."""
    raw = np.zeros(ensemble.n_features)
    stack = list(reversed(ensemble.trees))  # pre-order, left first
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            raw[node.feature] += node.gain
            stack += [node.right, node.left]
    total = float(raw.sum())
    uninformative = total <= 0
    normalized = raw / total if not uninformative else np.zeros_like(raw)
    order = list(np.lexsort((np.arange(raw.shape[0]), -raw)))
    names = (list(ensemble.feature_names) if ensemble.feature_names
             else [f"x{i + 1}" for i in range(ensemble.n_features)])
    return ImportanceReport(names=names, raw=raw, normalized=normalized,
                            order=[int(i) for i in order],
                            uninformative=uninformative)


def select_factors(report: ImportanceReport, top_k: int) -> list[str]:
    """Names of the top_k predictors by importance rank."""
    if not (_finite_number(top_k, numbers.Integral)
            and 1 <= top_k <= len(report.names)):
        raise ParameterError(
            f"top_k must be an integer in [1, {len(report.names)}], got {top_k!r}"
        )
    return report.ranked_names()[:top_k]
