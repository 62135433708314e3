"""Local weighted regression with blended geographic/attribute kernels.

A local model fits one weighted least-squares system per training
location; the weights decay with the blended distance

    d = r * d_geographic + (1 - r) * d_attribute

through a Gaussian kernel of bandwidth h. With r = 1 this is classic
geographically weighted regression (GWR). Both hyperparameters are
chosen by grid search: h against a leave-one-out cross-validation RMSE
(each observation's own weight is zeroed for its fit), and r over an
ascending grid with the bandwidth re-selected per candidate. Ties go
to the first bandwidth candidate and to the larger r. The r candidates
do not depend on one another: where numpy's OpenBLAS can be held at
one thread, a pool of two threads scores them, and every number is the
one a single thread computes. The pool and the hold last one search
(_search_helper): both end before fit_cwr does.

Prediction at a query point either averages the stored coefficient
vectors of the K nearest training points under the blended distance
("knn-coef", the default with K = 3) or solves a fresh weighted fit
centered on the query ("local-fit"). The K nearest are found by partial
selection, O(n) per query, and ordered by (distance, training-row
index), exactly as a full stable sort would order them. The training
half of the distances (standardized training attributes, the training
design matrix) is built once: fit_cwr builds it for its search and
hands it to the model it returns; a loaded model builds it on its
first prediction.
"""

from __future__ import annotations

import ctypes
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .data import (ObservationTable, StandardizationTransform,
                   _finite_number, _names, _numbers, standardize)
from .distances import (
    DistanceSpec,
    _check_matrix,
    attribute_distances,
    blend_distances,
    gaussian_weights,
    geographic_distances,
    training_scale,
)
from .errors import (
    DegenerateWeightsError,
    ParameterError,
    SearchFailureError,
    SingularFitError,
)
from .wls import (BatchedDesign, design_matrix, normal_equations,
                  solve_wls_batched)

#: Default blend-ratio grid: 0 to 1 in steps of 0.01, ascending.
DEFAULT_R_GRID = tuple(round(i / 100, 2) for i in range(101))

BANDWIDTH_GRID_SIZE = 20

# Float64 cells (1 MiB) a kernel chunk and a stack of p x p systems share.
_CHUNK_CELLS = 2 ** 17

SCORING_MODES = ("loo", "insample")

PREDICT_MODES = ("knn-coef", "local-fit")

_CRITERION = {"loo": "loo_rmse", "insample": "training_rmse"}


@dataclass
class HyperSearchTrace:
    """Grid-search record: every candidate, every score, the winner.

    Scores are RMSE values under the named criterion; candidates whose
    fits failed everywhere carry an infinite score. For blend-ratio
    searches `bandwidths` lists the bandwidth chosen for each r (NaN
    where none fitted). Non-finite values are written as JSON null.

    `n_regularized` and `n_failed` count, per candidate, the local
    systems of its leave-one-out fit that took the ridge or failed: at
    each bandwidth, or at each r's chosen bandwidth (None where none
    fitted). Models saved before these counts existed load them as None.
    """

    parameter: str
    criterion: str
    candidates: list[float]
    scores: list[float]
    selected: float
    selected_score: float
    bandwidths: list[float] | None = None
    selected_bandwidth: float | None = None
    n_regularized: list[int | None] | None = None
    n_failed: list[int | None] | None = None

    def __post_init__(self):
        if (self.parameter not in ("rate", "bandwidth")
                or self.criterion not in _CRITERION.values()):
            raise ParameterError(
                f"unknown trace parameter {self.parameter!r} or "
                f"criterion {self.criterion!r}")
        if (self.selected, self.selected_score) not in zip(self.candidates,
                                                           self.scores):
            raise ParameterError(f"trace selection {self.selected} with score "
                                 f"{self.selected_score} matches no candidate")

    def to_dict(self) -> dict:
        def _clean(x):
            return None if not np.isfinite(x) else float(x)

        return {
            "parameter": self.parameter,
            "criterion": self.criterion,
            "candidates": [float(c) for c in self.candidates],
            "scores": [_clean(s) for s in self.scores],
            "selected": float(self.selected),
            "selected_score": _clean(self.selected_score),
            "bandwidths": (None if self.bandwidths is None
                           else [_clean(h) for h in self.bandwidths]),
            "selected_bandwidth": (None if self.selected_bandwidth is None
                                   else float(self.selected_bandwidth)),
            "n_regularized": self.n_regularized,
            "n_failed": self.n_failed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HyperSearchTrace":
        m = len(doc["candidates"])

        def number(key, null=False):
            """doc[key] as a float; a null reads as `null`, if given."""
            x = doc.get(key)
            return (null if x is None and null is not False
                    else _numbers(x, f"trace {key}"))

        def listed(key, null=False, kind=numbers.Real):
            """doc[key] as a list as long as the candidates, each null
            read as `null`; the bandwidths and counts may be null or missing."""
            values = doc.get(key)
            if values is None and key in ("bandwidths", "n_regularized",
                                          "n_failed"):
                return None
            if null is False or not isinstance(values, list):
                return _numbers(values, f"trace {key}", (m,), kind).tolist()
            read = _numbers([0 if x is None else x for x in values],
                            f"trace {key}", (m,), kind).tolist()
            return [null if x is None else y for x, y in zip(values, read)]

        return cls(
            parameter=doc["parameter"],
            criterion=doc["criterion"],
            candidates=listed("candidates"),
            scores=listed("scores", np.inf),
            selected=number("selected"),
            selected_score=number("selected_score", np.inf),
            bandwidths=listed("bandwidths", np.nan),
            selected_bandwidth=number("selected_bandwidth", None),
            n_regularized=listed("n_regularized", None, numbers.Integral),
            n_failed=listed("n_failed", None, numbers.Integral),
        )


@dataclass
class LocalFit:
    """Per-location coefficients plus everything distances need.

    `geo_scale` and `attr_scale` are the training maxima used for
    max-scale normalization (1.0 under "none"); `transform` is the
    attribute standardization fitted on the training table, or None
    when r = 1 leaves attribute distances out entirely. `regularized`
    flags locations whose fit needed the ridge.
    """

    coefficients: np.ndarray
    bandwidth: float
    spec: DistanceSpec
    geo_scale: float
    attr_scale: float
    transform: StandardizationTransform | None
    regularized: np.ndarray

    def __post_init__(self):
        scales = (self.bandwidth, self.geo_scale, self.attr_scale)
        if not all(_finite_number(x) and x > 0 for x in scales):
            raise ParameterError("bandwidth and distance scales must be finite "
                                 f"and positive, got {scales}")
        if self.transform is None and self.spec.r < 1.0:
            raise ParameterError("blended model (r < 1) lacks standardization")


class _TrainingSide:
    """What the blended distances and local solves need of a training
    table under one attribute standardization: its BatchedDesign and
    its standardized attributes (None without a transform). The table
    checked its coordinates when it was built."""

    def __init__(self, table: ObservationTable, transform):
        self.table, self.transform = table, transform
        self.design = BatchedDesign(design_matrix(table.covariates), table.y)
        self.attrs = None
        if transform is not None:
            self.attr_index = [table.column_index(c) for c in transform.columns]
            self.attrs = transform.apply_table(table)

    @classmethod
    def of(cls, table, transform, cached=None) -> "_TrainingSide":
        """`cached` if built from this table and transform, else a new one."""
        if (cached is not None and cached.table is table
                and cached.transform is transform):
            return cached
        return cls(table, transform)

    def distances(self, normalization: str):
        """Training (geo, geo_scale, attr, attr_scale), each matrix divided
        in place by its max-scale constant (1.0 under "none"); without
        standardized attributes attr is None and attr_scale 1.0."""
        def scaled(D):
            scale = training_scale(D) if normalization == "max-scale" else 1.0
            D /= scale
            return D, scale

        coords = self.table.coords
        geo, geo_scale = scaled(geographic_distances(coords, coords))
        attr, attr_scale = ((None, 1.0) if self.attrs is None else
                            scaled(attribute_distances(self.attrs, self.attrs)))
        return geo, geo_scale, attr, attr_scale


def _solve_rows(design, W, label):
    """Solve one weighted system per row of W: (betas, regularized).

    The batched solver's flags are final: the first row it could not
    solve raises, DegenerateWeightsError when its weights are all zero
    and SingularFitError otherwise, naming the location either way.
    """
    betas, regularized, failed = solve_wls_batched(
        *normal_equations(design, W))
    if failed.any():
        i = int(np.argmax(failed))
        if not np.any(W[i] > 0):
            raise DegenerateWeightsError(
                f"local fit at {label} {i}: all observation weights are zero")
        raise SingularFitError(
            f"local fit at {label} {i} cannot be solved, even with the ridge")
    return betas, regularized


def fit_local(table: ObservationTable, spec: DistanceSpec, bandwidth: float
              ) -> LocalFit:
    """Fit one weighted least-squares system per training location.

    Uses the batched solver that scores search candidates. Near-singular
    locations (condition estimate of X'WX above 1e12) take ridge =
    1e-8 * trace(X'WX) / p and are flagged in `regularized`; a location
    without weight, or one the ridge cannot solve, raises and is named.
    """
    return fit_cwr(table, spec.attribute_columns, r=spec.r,
                   bandwidth=bandwidth, k=1,
                   normalization=spec.normalization).fit


def bandwidth_grid(D, size: int = BANDWIDTH_GRID_SIZE) -> list[float]:
    """Log-spaced bandwidth candidates for a blended distance matrix.

    Spans the 1st percentile to the maximum of the off-diagonal
    entries. Degenerates gracefully: all-zero distances yield a single
    bandwidth of 1.0 (every weight is 1 regardless). D is symmetric, as
    training distances are, so only its upper triangle is read; the grid
    equals np.percentile's over the whole off-diagonal.
    """
    if size < 1:
        raise ParameterError(f"grid size must be >= 1, got {size}")
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    off = D[~np.tri(n, dtype=bool)]
    hi = float(np.max(off, initial=0.0))
    if hi <= 0:
        return [1.0]
    # np.percentile's linear interpolation between the off-diagonal's
    # order statistics; its k-th smallest is `off`'s (k // 2)-th.
    index = (n * (n - 1) - 1) * 0.01
    below = int(np.floor(index))
    kth = [below // 2, (below + 1) // 2]
    off.partition(kth)  # `off` is already a copy
    lo = float(np.quantile(off[kth], index - below))
    if lo <= 0:
        lo = float(np.min(off, where=off > 0, initial=np.inf))
    if lo >= hi:
        return [hi]
    return [float(h) for h in np.geomspace(lo, hi, size)]


def _chunk_sizes(n: int, p: int, size: int) -> tuple[int, int]:
    """(b, k): the systems of b bandwidths go to one solve, built from
    kernel chunks of k. Each system counts 2 p^2 cells, its normal
    matrix and its Cholesky factor, so while one kernel and one
    bandwidth fit (n^2 + 2 n p^2 <= _CHUNK_CELLS), k n^2 + 2 b n p^2
    does too. At n = 160 and p = 3 that is b = 20, k = 2; at p = 3
    from n = 345, b = k = 1."""
    b = max(1, min(size, (_CHUNK_CELLS - n * n) // (2 * n * p * p)))
    k = max(1, min(b, (_CHUNK_CELLS - 2 * b * n * p * p) // (n * n)))
    return b, k


def _grid_scores(design, D, grid, scoring):
    """RMSE per bandwidth candidate over blended training distances,
    and per candidate how many of its local systems took the ridge and
    how many failed: three lists.

    "loo" zeroes each observation's own weight before its fit;
    "insample" keeps it (self weight is exactly 1 at zero distance).
    Candidates where any location fails to fit score infinity.

    The normal equations of b candidates are stacked and solved by one
    solve_wls_batched call; they are built k kernels at a time, as
    (k, n, n) stacks, each kernel's products written into its rows of
    the stack (b and k from _chunk_sizes). No system's numbers depend
    on its batch, so the scores equal one-at-a-time scoring's.
    """
    X, y = design.X, design.y
    n, p = X.shape
    b, k = _chunk_sizes(n, p, len(grid))
    scores, n_regularized, n_failed = [], [], []
    for start in range(0, len(grid), b):
        hs = grid[start:start + b]
        N, c = np.empty((len(hs) * n, p, p)), np.empty((len(hs) * n, p))
        for i in range(0, len(hs), k):
            W = gaussian_weights(D, np.reshape(hs[i:i + k], (-1, 1, 1)))
            if scoring == "loo":
                W.reshape(len(W), n * n)[:, ::n + 1] = 0.0
            rows = slice(i * n, (i + len(W)) * n)
            normal_equations(design, W, out=(N[rows], c[rows]))
            # Free these kernels before the next chunk is built.
            del W
        betas, regularized, failed = solve_wls_batched(N, c)
        # Free this stack before the next one is allocated.
        del N, c
        failed = failed.reshape(-1, n)
        pred = np.einsum("ij,kij->ki", X, betas.reshape(-1, n, p))
        rmse = np.sqrt(np.mean((y - pred) ** 2, axis=1))
        rmse[failed.any(axis=1)] = np.inf
        scores += rmse.tolist()
        n_regularized += regularized.reshape(-1, n).sum(axis=1).tolist()
        n_failed += failed.sum(axis=1).tolist()
    return scores, n_regularized, n_failed


def _validate_grid(grid, name):
    values = [float(g) for g in grid]
    if not values:
        raise ParameterError(f"{name} must be non-empty")
    if any(not np.isfinite(g) or g <= 0 for g in values):
        raise ParameterError(f"{name} must be positive, got {values}")
    return values


def _first_finite_min(scores) -> int | None:
    """Index of the first smallest finite score; None if none is finite."""
    finite = [i for i, s in enumerate(scores) if np.isfinite(s)]
    return min(finite, key=lambda i: scores[i], default=None)


class _Scored(NamedTuple):
    """One r candidate's search: its score, the index of its chosen
    bandwidth in `grid` (None when none fitted), and _grid_scores'
    leave-one-out lists over the grid."""

    score: float
    best: int | None
    grid: list[float]
    h_scores: list[float]
    n_regularized: list[int]
    n_failed: list[int]

    def at_best(self, values, missing=None):
        """values[best], or `missing` when no bandwidth fitted."""
        return missing if self.best is None else values[self.best]


def _score_rate(geo, attr, spec, design, bw_grid, size, scoring) -> _Scored:
    """Blend one r, take `bw_grid` or its blend's bandwidth_grid of
    `size`, and choose h by leave-one-out. The r scores that h's
    leave-one-out RMSE, or under "insample" its training RMSE. The
    blend lives only as long as the call."""
    D = blend_distances(geo, attr, spec)
    grid = bandwidth_grid(D, size=size) if bw_grid is None else bw_grid
    # Bandwidths are always chosen by leave-one-out: judged in-sample,
    # a smaller h always looks better.
    h_scores, n_regularized, n_failed = _grid_scores(design, D, grid, "loo")
    best = _first_finite_min(h_scores)
    if best is None:
        score = np.inf
    elif scoring == "loo":
        score = h_scores[best]
    else:
        score = _grid_scores(design, D, [grid[best]], "insample")[0][0]
    return _Scored(score, best, grid, h_scores, n_regularized, n_failed)


@cache
def _blas_threads():
    """(get, set) thread-count entry points of the OpenBLAS numpy's
    linalg is linked to, or None when none is found: another BLAS, or
    a build naming them otherwise. numpy 2 wheels call them
    scipy_openblas_{get,set}_num_threads64_."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            return get, set_
    return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


# Searches holding OpenBLAS at one thread, and the count the first found.
_hold = {"depth": 0, "threads": 1, "lock": threading.Lock()}


@contextmanager
def _search_helper(n_candidates: int):
    """Yield the map for a search of `n_candidates` r candidates: a
    two-thread pool's map, holding numpy's OpenBLAS at one thread for
    every thread of the process while the block runs; or the builtin
    map, holding nothing, for a single candidate, where _blas_threads
    finds no entry point, or where the process may run on one CPU only.
    Both keep the input order and raise the first failing candidate's
    exception. Concurrent searches share one hold: the last to leave
    restores the count the first found. The pool's threads are joined
    before the hold ends."""
    blas = None if n_candidates < 2 else _blas_threads()
    if blas is None or _usable_cpus() < 2:
        yield map
        return
    get, set_ = blas
    with _hold["lock"]:
        if _hold["depth"] == 0:
            _hold["threads"] = get()
            set_(1)
        _hold["depth"] += 1
    try:
        with ThreadPoolExecutor(2, thread_name_prefix="cwreg-search") as pool:
            yield pool.map
    finally:
        with _hold["lock"]:
            _hold["depth"] -= 1
            if _hold["depth"] == 0:
                set_(_hold["threads"])


def _release_holds_in_child():
    # A forked child has none of the threads that held OpenBLAS, and
    # the lock may have been taken by one of them.
    _hold["lock"] = threading.Lock()
    if _hold["depth"]:
        _hold["depth"] = 0
        _blas_threads()[1](_hold["threads"])


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_release_holds_in_child)


def select_rate(table: ObservationTable, attribute_columns,
                h_strategy="joint", r_grid=None, scoring: str = "loo",
                normalization: str = "max-scale",
                bandwidth_grid_size: int = BANDWIDTH_GRID_SIZE):
    """Grid-search the blend ratio r, re-selecting h per candidate.

    `h_strategy` is "joint" (bandwidth grid rebuilt and searched for
    every r, leave-one-out criterion) or a fixed positive bandwidth
    used everywhere. Under scoring="insample" the bandwidth is still
    chosen by leave-one-out but each r is judged by its raw training
    RMSE at the selected bandwidth. Candidates are evaluated in
    ascending order and exact score ties go to the larger r.

    Returns (DistanceSpec with the winning r, HyperSearchTrace).
    """
    model = fit_cwr(table, attribute_columns, r="search",
                    bandwidth="cv" if h_strategy == "joint"
                    else float(h_strategy),
                    k=1, scoring=scoring, normalization=normalization,
                    r_grid=r_grid, bandwidth_grid_size=bandwidth_grid_size)
    return model.fit.spec, model.traces["rate"]


def _query_blended(fit: LocalFit, training: _TrainingSide, coords,
                   covariates):
    """Blended query-to-training distances under the fit's scales."""
    table = training.table
    coords = _check_matrix(coords, "query coordinates", n_cols=2)
    covariates = _check_matrix(covariates, "query covariates",
                               n_cols=len(table.covariate_names),
                               n_rows=coords.shape[0])
    geo = cdist(coords, table.coords) / fit.geo_scale
    if fit.spec.r == 1.0:
        return geo
    # blend_distances' three roundings, written into geo.
    np.multiply(geo, fit.spec.r, out=geo)
    if training.attrs is not None:
        q_std = fit.transform.apply(covariates[:, training.attr_index])
        attr = cdist(q_std, training.attrs) / fit.attr_scale
        np.multiply(attr, 1 - fit.spec.r, out=attr)
        np.add(geo, attr, out=geo)
    return geo


def _nearest(D, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of D, in
    (distance, index) order: np.argsort(D, axis=1, kind="stable")[:, :k].

    np.argpartition picks k entries at or below each row's k-th
    smallest distance in O(n); sorted by index, then stably by
    distance, they are the answer unless more than k entries reach that
    distance. Such a row, tied across the boundary (or holding NaN),
    falls back to the full stable sort, that row alone.
    """
    rows = np.arange(D.shape[0])[:, None]
    # Copy the k columns so the n_query x n index array is freed.
    near = np.argpartition(D, k - 1, axis=1)[:, :k].copy()
    near.sort(axis=1)
    near_d = D[rows, near]
    order = near[rows, np.argsort(near_d, axis=1, kind="stable")]
    exact = np.count_nonzero(D <= near_d.max(axis=1, keepdims=True),
                             axis=1) == k
    if not exact.all():
        tied = np.flatnonzero(~exact)
        order[tied] = np.argsort(D[tied], axis=1, kind="stable")[:, :k]
    return order


def _check_prediction(mode, k, n: int) -> None:
    """The prediction settings' rule: `mode` is one of PREDICT_MODES and
    `k` an integer, not a bool, in [1, n] for n training rows."""
    if mode not in PREDICT_MODES:
        raise ParameterError(
            f"unknown prediction mode {mode!r}, expected one of {PREDICT_MODES}"
        )
    if not (_finite_number(k, numbers.Integral) and 1 <= k <= n):
        raise ParameterError(f"k must be an integer in [1, {n}], got {k!r}")


def predict_at(fit: LocalFit, table: ObservationTable, coords, covariates,
               mode: str = "knn-coef", k: int = 3, *,
               training: _TrainingSide | None = None) -> np.ndarray:
    """Predict the response at query locations (batch form).

    "knn-coef" averages the coefficient vectors of the k nearest
    training points under the blended distance and applies the average
    to the query covariates. The neighbours are ordered by (distance,
    training-row index), so distance ties go to the lower row; they are
    found by partial selection, O(n) per query, not by a full sort.
    "local-fit" solves a fresh weighted fit centered on each query at
    the stored bandwidth with fit_local's solver.

    The training half of the distances is built per call here unless
    `training` (FittedCwr's own) was made for this table and transform.
    """
    _check_prediction(mode, k, table.n)
    training = _TrainingSide.of(table, fit.transform, training)
    D = _query_blended(fit, training, coords, covariates)
    Xq = design_matrix(np.atleast_2d(np.asarray(covariates, dtype=float)))
    if mode == "knn-coef":
        beta_bar = fit.coefficients[_nearest(D, k)].mean(axis=1)
        return np.einsum("ij,ij->i", Xq, beta_bar)
    W = gaussian_weights(D, fit.bandwidth)
    betas, _ = _solve_rows(training.design, W, "query")
    return np.einsum("ij,ij->i", Xq, betas)


@dataclass
class FittedCwr:
    """A fitted local model bundled with its training table.

    The training table rides along because both prediction modes need
    it: coefficient averaging needs training distances, local fits
    need the full design. `name` distinguishes the pure-geographic
    special case ("gwr") from the blended model ("cwr") in reports.
    """

    fit: LocalFit
    table: ObservationTable
    k: int = 3
    mode: str = "knn-coef"
    traces: dict[str, HyperSearchTrace] = field(default_factory=dict)
    name: str = "cwr"
    # From fit_cwr, or built on the first prediction after a load, a
    # replaced table or a replaced transform.
    _training: _TrainingSide | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        _check_prediction(self.mode, self.k, self.table.n)
        h = self.fit.bandwidth
        for trace in self.traces.values():
            rate = trace.parameter == "rate"
            if (trace.selected != (self.fit.spec.r if rate else h)
                    or (rate and trace.selected_bandwidth != h)):
                raise ParameterError(f"the {trace.parameter} trace selected "
                                     "other values than the model holds")

    @property
    def covariate_names(self) -> list[str]:
        return list(self.table.covariate_names)

    def predict(self, coords, covariates) -> np.ndarray:
        self._training = _TrainingSide.of(self.table, self.fit.transform,
                                          self._training)
        return predict_at(self.fit, self.table, coords, covariates,
                          mode=self.mode, k=self.k, training=self._training)

    def predict_table(self, table: ObservationTable) -> np.ndarray:
        return self.predict(table.coords,
                            table.covariate_matrix(self.table.covariate_names))

    def to_dict(self) -> dict:
        return {
            "model_type": self.name,
            "k": self.k,
            "mode": self.mode,
            "bandwidth": self.fit.bandwidth,
            "spec": {
                "r": self.fit.spec.r,
                "attribute_columns": list(self.fit.spec.attribute_columns),
                "normalization": self.fit.spec.normalization,
            },
            "geo_scale": self.fit.geo_scale,
            "attr_scale": self.fit.attr_scale,
            "standardization": (None if self.fit.transform is None
                                else self.fit.transform.to_dict()),
            "coefficients": self.fit.coefficients.tolist(),
            "regularized": self.fit.regularized.astype(int).tolist(),
            "traces": {k: t.to_dict() for k, t in self.traces.items()},
            "training": self.table.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedCwr":
        """Rebuild and check a model document. models.load_model checks
        its format and version first and reports a malformed one."""
        table = ObservationTable.from_dict(doc["training"])
        n, p = table.n, len(table.covariate_names) + 1
        flags = _numbers(doc["regularized"], "regularized", (n,), numbers.Integral)
        if not np.all(np.isin(flags, (0, 1))):
            raise ParameterError("model regularized flags must be 0 or 1")
        transform = (None if doc["standardization"] is None else
                     StandardizationTransform.from_dict(doc["standardization"]))
        unknown = (set(transform.columns if transform else ())
                   - set(table.covariate_names))
        if unknown:
            raise ParameterError(f"standardization columns {sorted(unknown)} "
                                 "are not covariates of the training table")
        fit = LocalFit(
            coefficients=_numbers(doc["coefficients"], "coefficients", (n, p)),
            spec=DistanceSpec(
                r=_numbers(doc["spec"]["r"], "model spec.r"),
                attribute_columns=_names(doc["spec"]["attribute_columns"],
                                         "spec.attribute_columns"),
                normalization=doc["spec"]["normalization"],
            ),
            transform=transform, regularized=flags.astype(bool),
            **{key: _numbers(doc[key], f"model {key}")
               for key in ("bandwidth", "geo_scale", "attr_scale")},
        )
        return cls(fit=fit, table=table, k=doc["k"], mode=doc["mode"],
                   traces={key: HyperSearchTrace.from_dict(t)
                           for key, t in doc.get("traces", {}).items()},
                   name=doc.get("model_type", "cwr"))


def fit_cwr(train: ObservationTable, attribute_columns=None, r="search",
            bandwidth="cv", k: int = 3, mode: str = "knn-coef",
            scoring: str = "loo", normalization: str = "max-scale",
            r_grid=None, bw_grid=None,
            bandwidth_grid_size: int = BANDWIDTH_GRID_SIZE,
            name: str = "cwr") -> FittedCwr:
    """Search hyperparameters as configured, then fit the local model.

    `r` is "search" (over `r_grid`) or a fixed ratio in [0, 1];
    `bandwidth` is "cv" or a fixed positive value. Pass r=1.0 for a
    pure GWR. Under "cv" every r scores the bandwidths of `bw_grid`,
    or by default of bandwidth_grid on its blend. This is the only r/h
    search; select_rate and fit_local are views of it. The search and
    the final fit share one set of training distances and one solver.
    """
    _check_prediction(mode, k, train.n)
    if scoring not in SCORING_MODES:
        raise ParameterError(
            f"unknown scoring {scoring!r}, expected one of {SCORING_MODES}"
        )
    if isinstance(r, str) and r != "search":
        raise ParameterError(f'r must be a number or "search", got {r!r}')
    if isinstance(bandwidth, str) and bandwidth != "cv":
        raise ParameterError(
            f'bandwidth must be a number or "cv", got {bandwidth!r}'
        )
    search_r = isinstance(r, str)
    cv = isinstance(bandwidth, str)
    if cv and bw_grid is not None:
        bw_grid = _validate_grid(bw_grid, "bandwidth grid")
    elif not cv:
        if bw_grid is not None:
            raise ParameterError('bw_grid needs bandwidth="cv"')
        bw_grid = _validate_grid([bandwidth], "bandwidth")
    rates = (sorted(float(c) for c in
                    (DEFAULT_R_GRID if r_grid is None else r_grid))
             if search_r else [r])
    if not rates:
        raise ParameterError("r grid must be non-empty")
    if attribute_columns is None:
        attribute_columns = train.default_attribute_columns()
    specs = [DistanceSpec(r=c, attribute_columns=tuple(attribute_columns),
                          normalization=normalization) for c in rates]
    p = len(train.covariate_names) + 1
    if train.n < p + 1:
        raise ParameterError(
            f"need at least {p + 1} records to fit {p} coefficients locally"
        )
    # Attributes are standardized only when some candidate blends them.
    training = _TrainingSide(train, None if specs[0].r == 1.0 else
                             standardize(train, list(attribute_columns)))
    geo, geo_scale, attr, attr_scale = training.distances(normalization)
    score = partial(_score_rate, geo, attr, design=training.design,
                    bw_grid=bw_grid, size=bandwidth_grid_size,
                    scoring=scoring if search_r else "loo")
    traces: dict[str, HyperSearchTrace] = {}
    best, bandwidths = 0, bw_grid
    # Several candidates are scored on two threads where BLAS holds at
    # one thread, and the final fit runs under the same hold.
    with _search_helper(len(specs)) as map_rates:
        if search_r or cv:
            results = list(map_rates(score, specs))
            scores = [res.score for res in results]
            bandwidths = [res.at_best(res.grid, np.nan) for res in results]
            # Exact score ties go to the larger r, so search from the top.
            from_top = _first_finite_min(scores[::-1])
            if from_top is None:
                raise SearchFailureError(
                    f"no {'blend-ratio' if search_r else 'bandwidth'} "
                    "candidate produced a valid fit")
            best = len(specs) - 1 - from_top
            if search_r:
                traces["rate"] = HyperSearchTrace(
                    parameter="rate", criterion=_CRITERION[scoring],
                    candidates=rates, scores=scores, selected=rates[best],
                    selected_score=scores[best], bandwidths=bandwidths,
                    selected_bandwidth=bandwidths[best],
                    n_regularized=[res.at_best(res.n_regularized)
                                   for res in results],
                    n_failed=[res.at_best(res.n_failed) for res in results])
            else:
                # A fixed r ran one candidate; report its bandwidth search.
                res = results[0]
                traces["bandwidth"] = HyperSearchTrace(
                    parameter="bandwidth", criterion=_CRITERION["loo"],
                    candidates=list(res.grid), scores=res.h_scores,
                    selected=bandwidths[0], selected_score=res.score,
                    n_regularized=res.n_regularized, n_failed=res.n_failed)
        spec, h = specs[best], bandwidths[best]
        W = gaussian_weights(blend_distances(geo, attr, spec), h)
        coefficients, regularized = _solve_rows(training.design, W,
                                                "training location")
    if spec.r == 1.0:
        # A pure geographic model keeps no attribute side.
        training.transform, training.attrs, attr_scale = None, None, 1.0
    local = LocalFit(
        coefficients=coefficients, bandwidth=float(h), spec=spec,
        geo_scale=geo_scale, attr_scale=attr_scale,
        transform=training.transform, regularized=regularized)
    model = FittedCwr(fit=local, table=train, k=k, mode=mode, traces=traces,
                      name=name)
    model._training = training
    return model
