"""Local weighted regression with blended geographic/attribute kernels.

A local model fits one weighted least-squares system per training
location; the weights decay with the blended distance

    d = r * d_geographic + (1 - r) * d_attribute

through a Gaussian kernel of bandwidth h. With r = 1 this is classic
geographically weighted regression (GWR). Both hyperparameters are
chosen by grid search: h against a leave-one-out cross-validation RMSE
(each observation's own weight is zeroed for its fit), and r over an
ascending grid with the bandwidth re-selected per candidate. Ties go
to the first bandwidth candidate and to the larger r. Consecutive r
candidates are scored in chunks, one batched solve a chunk, and the
chunks do not depend on one another: where numpy's OpenBLAS can be
held at one thread, a pool of two threads scores them, and every
number is the one a single thread computes, one r at a time. The pool
and the hold last one search (_search_helper).

One pipeline (_local_systems) builds every local system, so a model's
coefficients come from the kernel that scored it. It reads the blended
distances a block of rows at a time (_Rows) into a buffer that, with
the block, holds 2^17 float64 cells (_BLOCK_CELLS, 1 MiB): there it
squares them, then writes the kernels of each tile of bandwidths, and
their products into the block's systems. Only the two scaled training
matrices, geographic and attribute, are n x n: each r's blend, its
bandwidth grid (_grid), its final fit and every prediction are derived
from them, or from a query's rows, one block at a time.

Prediction at a query point either averages the stored coefficient
vectors of the K nearest training points under the blended distance
("knn-coef", the default with K = 3) or solves a fresh weighted fit
centered on the query ("local-fit"); see predict_at. The training half
of the distances is built once: fit_cwr builds it for its search and
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
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .data import (ObservationTable, StandardizationTransform,
                   _finite_array, _finite_number, _names, _numbers, standardize)
from .distances import (DistanceSpec, _bandwidths, _blend_rows, _gaussian,
                        _nonnegative, attribute_distances,
                        geographic_distances, training_scale)
from .errors import (DegenerateWeightsError, ParameterError,
                     SearchFailureError, SingularFitError)
from .wls import BatchedDesign, _design, design_matrix, solve_wls_batched

#: Default blend-ratio grid: 0 to 1 in steps of 0.01, ascending.
DEFAULT_R_GRID = tuple(round(i / 100, 2) for i in range(101))

BANDWIDTH_GRID_SIZE = 20

SCORING_MODES = ("loo", "insample")

PREDICT_MODES = ("knn-coef", "local-fit")

_CRITERION = {"loo": "loo_rmse", "insample": "training_rmse"}

# Float64 cells (1 MiB) that a block of distance rows with its blend's
# second term, a block's d^2 and kernels, or a chunk's systems may hold.
_BLOCK_CELLS = 2 ** 17


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
            n_failed=listed("n_failed", None, numbers.Integral))


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


def _row_blocks(m: int, n: int, size: int):
    """(edges, B, t): blocks of rows edges[i]:edges[i + 1] of an m x n
    distance matrix, the most rows a block holds, and the bandwidths of
    a kernel tile: the fewest tiles of `size` bandwidths, as even as
    can be, with (1 + t) B n <= _BLOCK_CELLS, the pipeline's buffer of
    a block's distances and one tile. Blocks are as few as a limit of
    max(8, _BLOCK_CELLS // 2n) rows, rounded down to a multiple of 8,
    allows, and equal multiples of 8 rows but the last; a single row
    left over joins the block before. BLAS rounds rows by their place
    in groups of up to 8, and one-row products otherwise, so such
    blocks give equal numbers (within one BLAS kernel regime).
    """
    blocks = max(1, -(-m // max(8, _BLOCK_CELLS // (2 * n) // 8 * 8)))
    rows = max(8, -(-m // (8 * blocks)) * 8)
    edges = [*range(0, m, rows), m]
    if len(edges) > 2 and m - edges[-2] == 1:
        del edges[-2]
    B = max((b - a for a, b in zip(edges, edges[1:])), default=1)
    fits = max(1, _BLOCK_CELLS // (B * n) - 1)
    return edges, B, -(-size // -(-size // fits))


class _Rows(NamedTuple):
    """An m x n distance matrix read a block of rows at a time:
    read(a, b, buffer) returns rows a:b, computed into the buffer's
    first b - a rows where they are not stored (its next b - a rows
    take a blend's second term). A row gets the same bits whether it is
    read alone or in any block."""

    m: int
    read: Callable


def _array_rows(D) -> _Rows:
    return _Rows(len(D), lambda a, b, buffer: D[a:b])


def _training_rows(geo, attr, r) -> _Rows:
    """The training blend at r of the scaled (geo, attr), or geo alone
    where there is no attribute side (r = 1)."""
    if attr is None:
        return _array_rows(geo)
    return _Rows(len(geo), lambda a, b, buffer: _blend_rows(
        geo[a:b], attr[a:b], r, buffer[:b - a], buffer[b - a:2 * (b - a)]))


def _local_systems(design, rows: _Rows, bandwidths, loo=False, out=None,
                   buffer=None):
    """Normal equations (N, c) of one Gaussian-weighted system per
    bandwidth j and row i of the m x n distances `rows`, in row j m + i,
    into `out` (C-contiguous (k m, p, p) and (k m, p)) if given. Per row
    block the distances are read into the first B rows of `buffer` (of
    (1 + t) B rows or more, see _row_blocks; a new one if None),
    checked and squared in place; per tile of bandwidths the kernels go
    to its next rows, "loo" zeroes each row's own weight, and two GEMMs
    fill the systems.
    """
    h = _bandwidths(bandwidths)
    (m, n), k, p = (rows.m, design.X.shape[0]), len(h), design.X.shape[1]
    if out is None:
        out = np.empty((k * m, p, p)), np.empty((k * m, p))
    N, c = out[0].reshape(k, m, p * p), out[1].reshape(k, m, p)
    edges, B, t = _row_blocks(m, n, k)
    if buffer is None:
        buffer = np.empty(((1 + t) * B, n))
    # Overflow is left to the solver, which flags such rows failed.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(edges, edges[1:]):
            d = _nonnegative(rows.read(a, b, buffer))
            squared = np.square(d, out=buffer[:b - a])
            for j in range(0, k, t):
                hs = h[j:j + t, None, None]
                tile = buffer[B:B + len(hs) * (b - a)]
                W = _gaussian(squared, hs, out=tile.reshape(-1, b - a, n))
                if loo:
                    W[:, np.arange(b - a), np.arange(a, b)] = 0.0
                np.matmul(W, design.outer, out=N[j:j + t, a:b])
                np.matmul(W, design.xy, out=c[j:j + t, a:b])
    return out


def _solve_rows(design, rows: _Rows, h, label):
    """(betas, regularized) of the local system of each row of `rows` at h.

    The batched solver's flags are final: the first row it could not
    solve raises, naming it: DegenerateWeightsError if its weight sum
    N[0, 0] (the intercept column is ones) is 0 before the solver adds
    ridges into N (NaN if squares overflow), else SingularFitError.
    """
    N, c = _local_systems(design, rows, [h])
    weighted = N[:, 0, 0] > 0
    betas, regularized, failed = solve_wls_batched(N, c)
    if failed.any():
        i = int(np.argmax(failed))
        if not weighted[i]:
            raise DegenerateWeightsError(
                f"local fit at {label} {i}: all observation weights are zero")
        raise SingularFitError(
            f"local fit at {label} {i} cannot be solved, even with the ridge")
    return betas, regularized


def fit_local(table: ObservationTable, spec: DistanceSpec, bandwidth: float
              ) -> LocalFit:
    """Fit one weighted least-squares system per training location, as
    fit_cwr's final fit does (_solve_rows): near-singular locations take
    the ridge and are flagged in `regularized`, and a location without
    weight, or one the ridge cannot solve, raises and is named."""
    return fit_cwr(table, spec.attribute_columns, r=spec.r,
                   bandwidth=bandwidth, k=1,
                   normalization=spec.normalization).fit


def _grid_size(size) -> int:
    if not (_finite_number(size, numbers.Integral) and size >= 1):
        raise ParameterError(f"grid size must be an integer >= 1, got {size!r}")
    return size


def bandwidth_grid(D, size: int = BANDWIDTH_GRID_SIZE) -> list[float]:
    """Log-spaced bandwidth candidates for a blended distance matrix.

    Spans the 1st percentile to the maximum of the off-diagonal
    entries. Degenerates gracefully: all-zero distances yield a single
    bandwidth of 1.0 (every weight is 1 regardless). D is symmetric, as
    training distances are, so only its upper triangle is read; the grid
    equals np.percentile's over the whole off-diagonal.
    """
    return _grid(_array_rows(np.asarray(D, dtype=float)), size)


def _grid(rows: _Rows, size, buffer=None) -> list[float]:
    """bandwidth_grid of the n x n distances `rows`, read on the row
    blocks of _row_blocks into `buffer` (2 B rows or more; None where
    the rows are stored). Per block of the upper triangle it keeps the
    running maximum and the smallest entries the two order statistics
    need; where those are all zero, also the smallest positive entry of
    the rest."""
    size, n = _grid_size(size), rows.m
    if n < 2:
        return [1.0]
    # np.percentile's linear interpolation between the off-diagonal's
    # order statistics, written as numpy's _lerp writes it; its k-th
    # smallest is the upper triangle's (k // 2)-th.
    index = (n * (n - 1) - 1) * 0.01
    below = int(index)
    t = index - below
    kth = [below // 2, (below + 1) // 2]
    keep = kth[1] + 1

    def positive_min(x):
        return float(np.min(x, where=x > 0, initial=np.inf))

    edges = _row_blocks(n, n, 1)[0]
    # The narrowest integers compare fastest, into each block's mask.
    cols = np.arange(n, dtype=np.min_scalar_type(n))
    hi, low, kept, top = 0.0, np.inf, np.empty(0), np.inf
    for a, b in zip(edges, edges[1:]):
        upper = rows.read(a, b, buffer)[
            cols > np.arange(a, b, dtype=cols.dtype)[:, None]]
        hi = max(hi, float(upper.max(initial=0.0)))
        if top <= 0:  # an entry above `top` may be the smallest positive
            low = min(low, positive_min(upper))
        kept = (np.concatenate([kept, upper[upper <= top]]) if len(kept)
                else upper)
        del upper  # before the next block's entries are gathered
        if len(kept) > keep and b < n:
            kept.partition(keep - 1)
            if kept[keep - 1] <= 0:
                low = min(low, positive_min(kept[keep:]))
            kept, top = kept[:keep].copy(), kept[keep - 1]
    if hi <= 0:
        return [1.0]
    # One kth partitions faster than two; the other is the max below it.
    kept.partition(kth[1])
    b = float(kept[kth[1]])
    a = float(kept[:kth[1]].max()) if kth[0] < kth[1] else b
    lo = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    if lo <= 0:
        lo = min(low, positive_min(kept))
    if lo >= hi:
        return [hi]
    return np.geomspace(lo, hi, size).tolist()


def _score_systems(design, N, c):
    """Three lists over the candidates, n rows of the local systems (N,
    c) each: RMSE (infinite where any location fails to fit), and how
    many systems took the ridge and how many failed. One
    solve_wls_batched call solves them all, each as it would alone."""
    n, p = design.X.shape
    betas, regularized, failed = solve_wls_batched(N, c)
    failed = failed.reshape(-1, n)
    pred = np.einsum("ij,kij->ki", design.X, betas.reshape(-1, n, p))
    rmse = np.sqrt(np.mean((design.y - pred) ** 2, axis=1))
    rmse[failed.any(axis=1)] = np.inf
    return (rmse.tolist(), regularized.reshape(-1, n).sum(axis=1).tolist(),
            failed.sum(axis=1).tolist())


def _validate_grid(grid, name):
    values = list(grid)
    if not values:
        raise ParameterError(f"{name} must be non-empty")
    if not all(_finite_number(g) and g > 0 for g in values):
        raise ParameterError(f"{name} must be positive numbers, got {values}")
    return [float(g) for g in values]


def _first_finite_min(scores) -> int | None:
    """Index of the first smallest finite score; None if none is finite."""
    finite = [i for i, s in enumerate(scores) if np.isfinite(s)]
    return min(finite, key=lambda i: scores[i], default=None)


class _Scored(NamedTuple):
    """One r candidate's search: its score, its chosen bandwidth's index
    in `grid` (None if none fitted), and _score_systems' lists on it."""

    score: float
    best: int | None
    grid: list[float]
    h_scores: list[float]
    n_regularized: list[int]
    n_failed: list[int]

    def at_best(self, values, missing=None):
        """values[best], or `missing` when no bandwidth fitted."""
        return missing if self.best is None else values[self.best]


def _rates_per_chunk(n: int, p: int, g: int) -> int:
    """How many consecutive r one chunk scores: as many as keep its g n
    systems per r, p^2 + p cells each, within _BLOCK_CELLS; at least 1."""
    return max(1, _BLOCK_CELLS // (g * n * (p * p + p)))


def _score_chunk(geo, attr, specs, design, bw_grid, size, scoring):
    """The _Scored of each of `specs`, consecutive r candidates. Each r
    in turn is read a block of rows at a time through one pipeline
    buffer, once for its bandwidth_grid of `size` (the grid length)
    unless `bw_grid` is given, and once for its leave-one-out systems
    on that grid, written into its rows of one stack, scored by one
    _score_systems call. h is chosen by leave-one-out (judged
    in-sample, a smaller h always looks better); under "insample" the r
    then scores its training RMSE at h, from one more stack."""
    n, p = design.X.shape
    rows = len(specs) * size * n
    N, c = np.empty((rows, p, p)), np.empty((rows, p))
    _, B, t = _row_blocks(n, n, size)

    def scores(grids, loo):
        # Each r's systems at grids[i], a None grid made from its blend.
        # A grid holds 1 or `size` bandwidths, so its tiles fit the
        # buffer, which is freed before the solve.
        end, buffer = 0, np.empty(((1 + t) * B, n))
        for i, spec in enumerate(specs):
            D = _training_rows(geo, attr, spec.r)
            if grids[i] is None:
                grids[i] = _grid(D, size, buffer)
            rows = slice(end, end + len(grids[i]) * n)
            if grids[i]:
                _local_systems(design, D, grids[i], loo,
                               out=(N[rows], c[rows]), buffer=buffer)
            end = rows.stop
        del buffer
        return _score_systems(design, N[:end], c[:end])

    grids = [bw_grid] * len(specs)
    lists, results, at = scores(grids, True), [], 0
    for grid in grids:
        h_scores, n_regularized, n_failed = (x[at:at + len(grid)]
                                             for x in lists)
        at += len(grid)
        best = _first_finite_min(h_scores)
        results.append(_Scored(np.inf if best is None else h_scores[best],
                               best, grid, h_scores, n_regularized, n_failed))
    if scoring == "insample":
        training = iter(scores([res.at_best([[h] for h in res.grid], [])
                                for res in results], False)[0])
        results = [res if res.best is None else
                   res._replace(score=next(training)) for res in results]
    return results


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
def _search_helper(n_chunks: int):
    """Yield the map for a search of `n_chunks` chunks of r candidates:
    a two-thread pool's map, holding numpy's OpenBLAS at one thread for
    every thread of the process while the block runs; or the builtin
    map, holding nothing, for a single chunk, where _blas_threads finds
    no entry point, or on one usable CPU. Both keep the input order and
    raise the first failing chunk's exception; the pool's threads start
    in the caller's numpy error state (np.geterr). Concurrent searches
    share one hold: the last to leave restores the count the first
    found. The pool's threads are joined before the hold ends."""
    blas = None if n_chunks < 2 else _blas_threads()
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
        with ThreadPoolExecutor(2, "cwreg-search", initializer=partial(
                np.seterr, **np.geterr())) as pool:  # the caller's state
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
    """Grid-search the blend ratio r as fit_cwr does, re-selecting h per
    candidate: (DistanceSpec with the winning r, HyperSearchTrace).
    `h_strategy` is "joint" (each r's bandwidth grid rebuilt and searched
    by leave-one-out) or a fixed positive bandwidth used everywhere.
    Under scoring="insample" each r is judged by its training RMSE at
    its bandwidth. Exact score ties go to the larger r."""
    model = fit_cwr(table, attribute_columns, r="search",
                    bandwidth="cv" if h_strategy == "joint" else h_strategy,
                    k=1, scoring=scoring, normalization=normalization,
                    r_grid=r_grid, bandwidth_grid_size=bandwidth_grid_size)
    return model.fit.spec, model.traces["rate"]


def _query(coords, covariates, names):
    """The query rule every model type shares: (coords, covariates) as
    float arrays of m x 2 and m x len(names), every cell finite."""
    coords = _finite_array(coords, "query coordinates", (None, 2))
    return coords, _finite_array(covariates, "query covariates",
                                 (len(coords), len(names)))


def _query_blended(fit: LocalFit, training: _TrainingSide, coords,
                   covariates):
    """Blended query-to-training distances under the fit's scales, for
    a query that passed _query."""
    geo = cdist(coords, training.table.coords) / fit.geo_scale
    if fit.spec.r == 1.0:
        return geo
    z = fit.transform._apply(covariates[:, training.attr_index])
    attr = cdist(z, training.attrs) / fit.attr_scale
    return _blend_rows(geo, attr, fit.spec.r, geo, attr)


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
            f"unknown prediction mode {mode!r}, expected one of {PREDICT_MODES}")
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
    coords, covariates = _query(coords, covariates, table.covariate_names)
    rows = _Rows(len(coords), lambda a, b, buffer=None: _query_blended(
        fit, training, coords[a:b], covariates[a:b]))
    if mode == "knn-coef":
        # A row's neighbours do not depend on its block: any blocks do.
        near = np.empty((rows.m, k), dtype=np.intp)
        step = max(1, _BLOCK_CELLS // (2 * table.n))
        for a in range(0, rows.m, step):
            near[a:a + step] = _nearest(rows.read(a, a + step), k)
        betas = fit.coefficients[near].sum(axis=1) / k
    else:
        betas = _solve_rows(training.design, rows, fit.bandwidth, "query")[0]
    # Summed row by row: a row's bits do not depend on its batch.
    return (_design(covariates) * betas).sum(axis=1)


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
        n, p = self.table.n, len(self.table.covariate_names) + 1
        _check_prediction(self.mode, self.k, n)
        self.fit.coefficients = _finite_array(self.fit.coefficients,
                                              "coefficients", (n, p))
        flags = _finite_array(self.fit.regularized, "regularized flags", (n,))
        if not np.all((flags == 0) | (flags == 1)):
            raise ParameterError("model regularized flags must be 0 or 1")
        self.fit.regularized = flags.astype(bool)
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
            "spec": {"r": self.fit.spec.r,
                     "attribute_columns": list(self.fit.spec.attribute_columns),
                     "normalization": self.fit.spec.normalization},
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
            transform=transform, regularized=flags,
            **{key: _numbers(doc[key], f"model {key}")
               for key in ("bandwidth", "geo_scale", "attr_scale")})
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
            f"unknown scoring {scoring!r}, expected one of {SCORING_MODES}")
    if isinstance(r, str) and r != "search":
        raise ParameterError(f'r must be a number or "search", got {r!r}')
    if isinstance(bandwidth, str) and bandwidth != "cv":
        raise ParameterError(
            f'bandwidth must be a number or "cv", got {bandwidth!r}')
    search_r, cv = isinstance(r, str), isinstance(bandwidth, str)
    if cv and bw_grid is not None:
        bw_grid = _validate_grid(bw_grid, "bandwidth grid")
    elif not cv:
        if bw_grid is not None:
            raise ParameterError('bw_grid needs bandwidth="cv"')
        bw_grid = _validate_grid([bandwidth], "bandwidth")
    if attribute_columns is None:
        attribute_columns = train.default_attribute_columns()
    candidates = ((DEFAULT_R_GRID if r_grid is None else r_grid)
                  if search_r else [r])
    # DistanceSpec owns r's rule, so each candidate is checked there.
    specs = sorted((DistanceSpec(r=c, attribute_columns=tuple(attribute_columns),
                                 normalization=normalization)
                    for c in candidates), key=lambda spec: spec.r)
    if not specs:
        raise ParameterError("r grid must be non-empty")
    rates = [spec.r for spec in specs]
    p = len(train.covariate_names) + 1
    if train.n < p + 1:
        raise ParameterError(
            f"need at least {p + 1} records to fit {p} coefficients locally")
    # Attributes are standardized only when some candidate blends them.
    training = _TrainingSide(train, None if specs[0].r == 1.0 else
                             standardize(train, list(attribute_columns)))
    geo, geo_scale, attr, attr_scale = training.distances(normalization)
    size = len(bw_grid) if bw_grid else _grid_size(bandwidth_grid_size)
    score = partial(_score_chunk, geo, attr, design=training.design,
                    bw_grid=bw_grid, size=size,
                    scoring=scoring if search_r else "loo")
    step = _rates_per_chunk(train.n, p, size)
    chunks = [specs[i:i + step] for i in range(0, len(specs), step)]
    traces: dict[str, HyperSearchTrace] = {}
    best, bandwidths = 0, bw_grid
    # Several chunks are scored on two threads where BLAS holds at one
    # thread, and the final fit runs under the same hold.
    with _search_helper(len(chunks)) as map_chunks:
        if search_r or cv:
            results = [res for chunk in map_chunks(score, chunks)
                       for res in chunk]
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
        coefficients, regularized = _solve_rows(
            training.design, _training_rows(geo, attr, spec.r), h,
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
