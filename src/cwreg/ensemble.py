"""Regression trees, least-squares boosting, and split-gain importance.

Trees are grown greedily: every split maximizes the reduction in total
squared error, with candidate thresholds at the midpoints between
consecutive sorted unique feature values. Each internal node records
the reduction its split achieved; predictor importance is the sum of
those reductions per feature across an ensemble.

Boosting is plain stagewise least squares: start from the response
mean, repeatedly fit a tree to the current residuals and add a
shrunken copy of its predictions. With least-squares leaf values the
training MSE can never increase from one stage to the next.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

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
        X = np.atleast_2d(np.asarray(X, dtype=float))
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
        `n_features` columns."""
        if "feature" not in doc:
            return cls(value=doc["value"])
        feature = doc["feature"]
        if isinstance(feature, bool) or not isinstance(feature, int) \
                or not 0 <= feature < n_features:
            raise ParameterError(
                f"tree split feature must be an integer in "
                f"[0, {n_features}), got {feature!r}")
        return cls(
            value=doc["value"],
            feature=feature,
            threshold=doc["threshold"],
            gain=doc["gain"],
            left=cls.from_dict(doc["left"], n_features),
            right=cls.from_dict(doc["right"], n_features),
        )


def _node_sse(y):
    return float(np.sum((y - y.mean()) ** 2))


def _best_split(X, y, min_leaf):
    """Best (gain, feature, threshold) or None when no split helps.

    Ties go to the lowest feature index, then the lowest threshold;
    np.argmax on the per-feature gain vector picks the first maximum,
    which encodes both rules since features are scanned in order.
    """
    n = y.shape[0]
    base = _node_sse(y)
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
        nl = positions
        nr = n - positions
        sse_left = left_sq - left_sum ** 2 / nl
        sse_right = (total_sq - left_sq) - (total - left_sum) ** 2 / nr
        gains = np.where(valid, base - sse_left - sse_right, -np.inf)
        t = int(np.argmax(gains))
        gain = float(gains[t])
        if gain <= 0:
            continue
        if best is None or gain > best[0]:
            lo, hi = xs[t], xs[t + 1]
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:  # adjacent floats: keep the partition
                threshold = lo
            best = (gain, j, float(threshold))
    return best


def _grow(X, y, depth, max_depth, min_leaf):
    node = TreeNode(value=float(y.mean()))
    if depth >= max_depth or y.shape[0] < 2 * min_leaf or np.all(y == y[0]):
        return node
    found = _best_split(X, y, min_leaf)
    if found is None:
        return node
    gain, feature, threshold = found
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.gain = gain
    node.left = _grow(X[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


def fit_tree(X, y, max_depth: int = 3, min_leaf: int = 5) -> TreeNode:
    """Greedy least-squares regression tree.

    Returns a single leaf when y is constant or no split has positive
    gain. Requires n >= 2 * min_leaf so at least one split is legal.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if max_depth < 1:
        raise ParameterError(f"max_depth must be >= 1, got {max_depth}")
    if min_leaf < 1:
        raise ParameterError(f"min_leaf must be >= 1, got {min_leaf}")
    if y.shape[0] < 2 * min_leaf:
        raise ParameterError(
            f"need at least 2 * min_leaf = {2 * min_leaf} rows, got {y.shape[0]}"
        )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ParameterError("X and y must be finite")
    return _grow(X, y, 0, max_depth, min_leaf)


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

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise DimensionError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
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
        return cls(
            f0=doc["f0"],
            trees=[TreeNode.from_dict(t, doc["n_features"])
                   for t in doc["trees"]],
            shrinkage=doc["shrinkage"],
            max_depth=doc["max_depth"],
            min_leaf=doc["min_leaf"],
            n_features=doc["n_features"],
            feature_names=doc.get("feature_names"),
            train_mse=list(doc.get("train_mse", [])),
        )


def fit_lsboost(X, y, n_trees: int = 100, shrinkage: float = 0.1,
                max_depth: int = 3, min_leaf: int = 5,
                feature_names=None) -> BoostedEnsemble:
    """Least-squares boosting started from the response mean.

    Each stage fits a regression tree to the current residuals and
    adds shrinkage * tree(x) to the running prediction. The recorded
    per-stage training MSE sequence is non-increasing.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if n_trees < 1:
        raise ParameterError(f"n_trees must be >= 1, got {n_trees}")
    if not 0.0 < shrinkage <= 1.0:
        raise ParameterError(f"shrinkage must be in (0, 1], got {shrinkage}")
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise DimensionError(
            f"{len(feature_names)} feature names for {X.shape[1]} features"
        )
    f0 = float(y.mean())
    current = np.full(y.shape[0], f0)
    trees = []
    mse = []
    for _ in range(n_trees):
        tree = fit_tree(X, y - current, max_depth=max_depth, min_leaf=min_leaf)
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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["predictor", "raw_reduction", "normalized", "rank"])
            for rank, i in enumerate(self.order, start=1):
                writer.writerow([self.names[i], repr(float(self.raw[i])),
                                 repr(float(self.normalized[i])), rank])


def _accumulate_gains(node: TreeNode, raw: np.ndarray) -> None:
    if node.is_leaf:
        return
    raw[node.feature] += node.gain
    _accumulate_gains(node.left, raw)
    _accumulate_gains(node.right, raw)


def predictor_importance(ensemble: BoostedEnsemble) -> ImportanceReport:
    """Sum each predictor's split gains over all trees and rank them."""
    raw = np.zeros(ensemble.n_features)
    for tree in ensemble.trees:
        _accumulate_gains(tree, raw)
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
    if not 1 <= top_k <= len(report.names):
        raise ParameterError(
            f"top_k must be in [1, {len(report.names)}], got {top_k}"
        )
    return report.ranked_names()[:top_k]
