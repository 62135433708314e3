"""Local weighted fits, hyperparameter search, prediction modes."""

import dataclasses
import json
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import cwreg.local
from cwreg.data import (ObservationTable, StandardizationTransform,
                        generate_hedonic, generate_synthetic, standardize)
from cwreg.distances import DistanceSpec, _blend_rows, gaussian_weights
from cwreg.errors import (DegenerateWeightsError, DimensionError,
                          ParameterError, SearchFailureError,
                          SingularFitError)
from cwreg.evaluate import ComparisonConfig, fit_model, rmse
from cwreg.models import load_model, save_model
from cwreg.local import (
    FittedCwr,
    HyperSearchTrace,
    bandwidth_grid,
    fit_cwr,
    fit_local,
    predict_at,
    select_rate,
)
from cwreg.wls import (BatchedDesign, design_matrix, fit_ols,
                        solve_wls_batched)

from conftest import brute_force_distance_matrix, brute_force_wls, random_table


@pytest.fixture
def serial(monkeypatch):
    """fit_cwr scores every candidate on the calling thread: the lookup
    of OpenBLAS's thread control finds nothing."""
    monkeypatch.setattr(cwreg.local, "_blas_threads", lambda: None)


@pytest.fixture
def two_workers(monkeypatch):
    """fit_cwr scores several candidates on its two-thread pool, also
    where the process may run on one CPU. OpenBLAS starts at two
    threads, and its count is put back afterwards; yields its getter."""
    blas = cwreg.local._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    monkeypatch.setattr(cwreg.local, "_usable_cpus", lambda: 2)
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)


def reject_constant(name):
    """json.loads hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"non-standard JSON constant {name}")


def hand_pipeline(table, attribute_columns, r, bandwidth):
    """Re-derive per-location coefficients from first principles.

    Standardization constants, both distance matrices, max-scaling,
    blending, kernel weights and every per-location solve are computed
    with explicit loops, independent of the library pipeline.
    """
    coords = table.coords
    n = table.n
    attrs = table.covariate_matrix(attribute_columns)
    means = attrs.sum(axis=0) / n
    stds = np.sqrt(((attrs - means) ** 2).sum(axis=0) / (n - 1))
    Z = (attrs - means) / stds
    geo = brute_force_distance_matrix(coords, coords)
    attr = brute_force_distance_matrix(Z, Z)
    geo_n = geo / geo.max()
    attr_n = attr / attr.max()
    D = r * geo_n + (1 - r) * attr_n
    X = design_matrix(table.covariates)
    betas = np.empty((n, X.shape[1]))
    for i in range(n):
        w = np.array([math.exp(-((d / bandwidth) ** 2)) for d in D[i]])
        betas[i] = brute_force_wls(X, table.y, w)
    return betas


def loo_rmse_by_hand(table, D, bandwidth):
    """Leave-one-out RMSE at one bandwidth, via per-row loops."""
    X = design_matrix(table.covariates)
    errors = []
    for i in range(table.n):
        w = np.exp(-((D[i] / bandwidth) ** 2))
        w[i] = 0.0
        beta = brute_force_wls(X, table.y, w)
        errors.append(table.y[i] - float(X[i] @ beta))
    return float(np.sqrt(np.mean(np.square(errors))))


def huge_covariates(table):
    """`table` with its covariates times 1e160: their squares overflow."""
    return dataclasses.replace(table, covariates=table.covariates * 1e160)


def collinear_table():
    """Twelve records whose two covariates are exact duplicates."""
    rng = np.random.default_rng(39)
    x1 = rng.normal(size=12)
    return ObservationTable(
        ids=[f"c{i}" for i in range(12)],
        coords=rng.uniform(0, 5, size=(12, 2)),
        y=rng.normal(size=12),
        covariates=np.column_stack([x1, x1]),
        covariate_names=["x1", "x2"],
    )


def tie_table():
    """Five records whose geo and attribute distances agree exactly.

    Coordinates use the multiset (0, 0, 1, 2, 2) in both axes, whose
    sample mean and standard deviation are exactly 1.0 in floats, so
    standardizing x1 = u, x2 = v merely translates the points and the
    two distance matrices coincide entrywise.
    """
    u = np.array([0.0, 0.0, 1.0, 2.0, 2.0])
    v = np.array([1.0, 2.0, 0.0, 2.0, 0.0])
    return ObservationTable(
        ids=[f"t{i}" for i in range(5)],
        coords=np.column_stack([u, v]),
        y=np.array([1.0, 2.0, 0.5, 3.0, 1.5]),
        covariates=np.column_stack([u, v]),
        covariate_names=["x1", "x2"],
    )


class TestFitLocal:
    def test_matches_hand_pipeline_blended(self):
        table = random_table(n=12, p=2, seed=33)
        spec = DistanceSpec(r=0.5, attribute_columns=("x1", "x2"))
        fit = fit_local(table, spec, bandwidth=0.4)
        expected = hand_pipeline(table, ["x1", "x2"], r=0.5, bandwidth=0.4)
        np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-10)
        assert fit.transform is not None
        assert not fit.regularized.any()

    def test_matches_hand_pipeline_other_ratios(self):
        table = random_table(n=10, p=2, seed=34)
        for r in (0.2, 0.8):
            spec = DistanceSpec(r=r, attribute_columns=("x1", "x2"))
            fit = fit_local(table, spec, bandwidth=0.6)
            expected = hand_pipeline(table, ["x1", "x2"], r=r, bandwidth=0.6)
            np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-9)

    def test_pure_geographic_ignores_attributes(self):
        # At r = 1 the attribute machinery must not even engage:
        # same coefficients with or without attribute columns.
        table = random_table(n=15, p=2, seed=35)
        with_cols = fit_local(
            table, DistanceSpec(r=1.0, attribute_columns=("x1",)), 0.5)
        without = fit_local(table, DistanceSpec(r=1.0), 0.5)
        np.testing.assert_array_equal(with_cols.coefficients,
                                      without.coefficients)
        assert without.transform is None
        assert without.attr_scale == 1.0

    def test_huge_bandwidth_collapses_to_ols(self):
        # Weights flatten to 1 and every location sees the global fit.
        table = random_table(n=25, p=2, seed=36)
        fit = fit_local(table, DistanceSpec(r=1.0), bandwidth=1e9)
        beta_global = fit_ols(design_matrix(table.covariates), table.y)
        for i in range(table.n):
            np.testing.assert_allclose(fit.coefficients[i], beta_global,
                                       rtol=1e-6)

    def test_row_permutation_invariance(self):
        table = random_table(n=20, p=2, seed=37)
        rng = np.random.default_rng(0)
        perm = rng.permutation(20)
        shuffled = table.subset(perm)
        spec = DistanceSpec(r=0.5, attribute_columns=("x1", "x2"))
        fit_a = fit_local(table, spec, 0.5)
        fit_b = fit_local(shuffled, spec, 0.5)
        # Coefficients belong to records, not row positions.
        np.testing.assert_allclose(fit_a.coefficients[perm],
                                   fit_b.coefficients, atol=1e-10)

    def test_determinism(self):
        table = random_table(n=15, p=2, seed=38)
        spec = DistanceSpec(r=0.3, attribute_columns=("x1",))
        a = fit_local(table, spec, 0.7)
        b = fit_local(table, spec, 0.7)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_collinear_covariates_use_ridge_fallback(self):
        table = collinear_table()
        fit = fit_local(table, DistanceSpec(r=1.0), 1.0)
        assert fit.regularized.all()
        assert np.all(np.isfinite(fit.coefficients))

    def test_parameter_validation(self):
        table = random_table(n=10, p=2, seed=40)
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ParameterError):
                fit_local(table, DistanceSpec(r=1.0), bad)
        tiny = random_table(n=3, p=3, seed=41)
        with pytest.raises(ParameterError):
            fit_local(tiny, DistanceSpec(r=1.0), 1.0)


def full_off_diagonal_grid(D, size=20):
    """bandwidth_grid from np.percentile over the whole off-diagonal."""
    off = D[~np.eye(D.shape[0], dtype=bool)]
    hi = float(np.max(off, initial=0.0))
    if hi <= 0:
        return [1.0]
    lo = float(np.percentile(off, 1.0))
    if lo <= 0:
        lo = float(np.min(off, where=off > 0, initial=np.inf))
    if lo >= hi:
        return [hi]
    return [float(h) for h in np.geomspace(lo, hi, size)]


class TestBandwidthGrid:
    def test_spans_percentile_to_max(self):
        rng = np.random.default_rng(42)
        D = np.abs(rng.normal(size=(30, 30)))
        D = D + D.T
        np.fill_diagonal(D, 0.0)
        grid = bandwidth_grid(D, size=20)
        off = D[~np.eye(30, dtype=bool)]
        assert len(grid) == 20
        assert grid[0] == pytest.approx(np.percentile(off, 1.0), rel=1e-12)
        assert grid[-1] == pytest.approx(off.max(), rel=1e-12)
        assert grid == sorted(grid)
        # Log-spaced: constant ratio between neighbors.
        ratios = [grid[i + 1] / grid[i] for i in range(19)]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    # n = 2 and 3 take both order statistics from one upper entry;
    # decimals=0 rounds points onto few sites, so from n = 57 the 1st
    # percentile at r = 0 and r = 1 is zero and the grid falls back to
    # the smallest positive distance. Up to n = 160 one row block holds
    # every row; n = 300 takes two and n = 1001 sixteen. The grid of the
    # training rows, blended a block at a time into a pipeline buffer,
    # is bandwidth_grid's of the whole blend.
    @pytest.mark.parametrize("n", [2, 3, 9, 11, 57, 160, 300, 1001])
    @pytest.mark.parametrize("decimals", [0, 1, 8])
    def test_upper_triangle_equals_full_off_diagonal(self, n, decimals):
        rng = np.random.default_rng(n * 10 + decimals)
        coords = np.round(rng.uniform(0, 4, size=(n, 2)), decimals)
        attrs = np.round(rng.normal(size=(n, 3)), decimals)
        geo, attr = cdist(coords, coords), cdist(attrs, attrs)
        geo, attr = geo / max(geo.max(), 1.0), attr / max(attr.max(), 1.0)
        _, B, _ = cwreg.local._row_blocks(n, n, 1)
        buffer = np.empty((2 * B, n))
        for r in (0.0, 0.37, 1.0):
            D = _blend_rows(geo, attr, r, np.empty((n, n)))
            assert np.array_equal(D, D.T)
            rows = cwreg.local._training_rows(geo, attr, r)
            for size in (1, 20):
                grid = bandwidth_grid(D, size=size)
                assert grid == full_off_diagonal_grid(D, size)
                assert cwreg.local._grid(rows, size, buffer) == grid

    @pytest.mark.parametrize("n", [9, 57, 300])
    @pytest.mark.parametrize("decimals", [0, 1, 8])
    def test_blocks_of_eight_rows(self, monkeypatch, n, decimals):
        # Blocks of 8 rows split the smallest entries over many blocks:
        # the two order statistics, the entries kept and those dropped.
        monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", 16 * n)
        assert cwreg.local._row_blocks(n, n, 1)[1] <= 9
        rng = np.random.default_rng(n + decimals)
        coords = np.round(rng.uniform(0, 4, size=(n, 2)), decimals)
        D = cdist(coords, coords)
        assert bandwidth_grid(D) == full_off_diagonal_grid(D)

    @pytest.mark.parametrize("n", [150, 200])
    def test_order_statistics_in_other_blocks(self, monkeypatch, n):
        # Upper-triangle values 1, 2, ... in a random order, with the
        # two order statistics placed in the first and the last block
        # of 8 rows, and the value just above them in a middle one.
        monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", 16 * n)
        edges = cwreg.local._row_blocks(n, n, 1)[0]
        rows, cols = np.triu_indices(n, 1)
        values = np.random.default_rng(n).permutation(len(rows)) + 1.0
        below = int((n * (n - 1) - 1) * 0.01)
        low, high = below // 2, (below + 1) // 2
        assert low < high
        for rank, row in ((low, 0), (high, edges[-2]),
                          (high + 1, edges[len(edges) // 2])):
            at = np.flatnonzero(rows == row)[0]
            swap = np.flatnonzero(values == rank + 1.0)[0]
            values[[at, swap]] = values[[swap, at]]
        D = np.zeros((n, n))
        D[rows, cols] = D[cols, rows] = values
        assert bandwidth_grid(D) == full_off_diagonal_grid(D)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_zeros_crowd_out_the_smallest_positive(self, monkeypatch, where):
        # Over 1% of the entries are zero, so both order statistics are
        # zero and the grid starts at the smallest positive entry. The
        # zeros sit in one band of rows, and the smallest positive entry
        # in the first row (kept, then dropped for the zeros), in the
        # band's block, or in the last block (after the zeros: never
        # kept).
        n = 300
        monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", 16 * n)
        rng = np.random.default_rng(7)
        D = rng.uniform(1.0, 2.0, size=(n, n))
        D = D + D.T
        band = slice(100, 110)
        D[band, band] = 0.0
        D[band, 200:260] = D[200:260, band] = 0.0
        row = {"first": 0, "middle": 100, "last": n - 8}[where]
        D[row, n - 1] = D[n - 1, row] = 0.5
        np.fill_diagonal(D, 0.0)
        off = D[~np.eye(n, dtype=bool)]
        assert np.percentile(off, 1.0) == 0.0
        grid = bandwidth_grid(D, size=8)
        assert grid[0] == 0.5
        assert grid == full_off_diagonal_grid(D, size=8)

    def test_many_zero_distances_fall_back_to_smallest_positive(self):
        # More than 1% of the off-diagonal entries are zero (duplicate
        # locations), so the 1st percentile is 0 and the grid starts at
        # the smallest positive distance instead.
        rng = np.random.default_rng(43)
        D = np.abs(rng.normal(size=(30, 30))) + 0.5
        D = D + D.T
        D[:3, :3] = 0.0
        D[10:13, 20:23] = 0.0
        D[20:23, 10:13] = 0.0
        np.fill_diagonal(D, 0.0)
        off = D[~np.eye(30, dtype=bool)]
        assert np.mean(off == 0) > 0.01
        assert np.percentile(off, 1.0) == 0.0
        grid = bandwidth_grid(D, size=8)
        assert len(grid) == 8
        assert grid[0] == pytest.approx(off[off > 0].min(), rel=1e-12)
        assert grid[-1] == pytest.approx(off.max(), rel=1e-12)
        assert grid == sorted(grid)

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(44)
        D = np.abs(rng.normal(size=(12, 12)))
        D = D + D.T
        np.fill_diagonal(D, 0.0)
        before = D.copy()
        bandwidth_grid(D)
        np.testing.assert_array_equal(D, before)

    def test_all_zero_distances_degenerate(self):
        assert bandwidth_grid(np.zeros((5, 5))) == [1.0]
        assert bandwidth_grid(np.zeros((1001, 1001))) == [1.0]
        assert bandwidth_grid(np.zeros((1, 1))) == [1.0]

    def test_single_distance_value(self):
        D = np.full((4, 4), 2.5)
        np.fill_diagonal(D, 0.0)
        assert bandwidth_grid(D, size=10) == [2.5]

    def test_size_validated(self):
        with pytest.raises(ParameterError):
            bandwidth_grid(np.ones((3, 3)), size=0)


def grid_scores(design, D, grid, scoring):
    """The three lists of _score_systems for one blend's bandwidths:
    leave-one-out under "loo", in-sample under "insample"."""
    return cwreg.local._score_systems(design, *cwreg.local._local_systems(
        design, cwreg.local._array_rows(D), grid, loo=scoring == "loo"))


class TestSearchMemory:
    """The r/h search holds the two training distance matrices and, for
    one r at a time, a block of its blend and one tile of kernels."""

    N = 300

    def _peak_matrices(self, run):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (self.N * self.N * 8)

    def _distances(self):
        rng = np.random.default_rng(45)
        D = np.abs(rng.normal(size=(self.N, self.N)))
        D = D + D.T
        np.fill_diagonal(D, 0.0)
        return D

    def test_grid_scores_keep_one_kernel_live(self):
        rng = np.random.default_rng(46)
        X = design_matrix(rng.normal(size=(self.N, 2)))
        y = rng.normal(size=self.N)
        D = self._distances()
        grid = bandwidth_grid(D, size=4)
        design = BatchedDesign(X, y)
        peak = self._peak_matrices(
            lambda: grid_scores(design, D, grid, "loo"))
        assert peak < 1.5

    def test_grid_scores_chunk_fits_its_budget(self):
        # One r's 20 candidates at n = 300, p = 3 need a system stack
        # (N, c and, while solving, the Cholesky factor) of 20 n (2 p^2
        # + p) cells; everything else, the row block's squared
        # distances and one tile of kernels, fits the _BLOCK_CELLS
        # budget. Twenty whole kernels would take 14 MiB.
        n, p, k = self.N, 3, 20
        rng = np.random.default_rng(48)
        X = design_matrix(rng.normal(size=(n, p - 1)))
        y = rng.normal(size=n)
        D = self._distances()
        grid = bandwidth_grid(D, size=k)
        tracemalloc.start()
        try:
            grid_scores(BatchedDesign(X, y), D, grid, "loo")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        systems = 8 * k * n * (2 * p * p + p)
        assert peak < systems + 8 * cwreg.local._BLOCK_CELLS

    def test_bandwidth_grid_copies_distances_once(self):
        D = self._distances()
        assert self._peak_matrices(lambda: bandwidth_grid(D)) < 1.5

    def test_bandwidth_grid_keeps_no_matrix(self):
        # The grid reads a block of rows at a time and caches nothing:
        # after it returns no n x n array or mask is left, and at
        # n = 1001, in blocks of 64 rows, it never holds a tenth of one.
        for n in (self.N, 1001):
            rng = np.random.default_rng(n)
            coords = rng.uniform(size=(n, 2))
            D = cdist(coords, coords)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                bandwidth_grid(D)
                left, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert left - before < 0.01 * D.nbytes
            assert n < 1001 or peak - before < 0.1 * D.nbytes

    def test_pure_geographic_fit_has_no_attribute_side(self):
        # At r = 1 the training side holds no standardized attributes,
        # so the fit peaks a whole n x n array below a blended one.
        table = random_table(n=self.N, p=2, seed=47)
        model = fit_cwr(table, ["x1", "x2"], r=1.0, bandwidth=0.5)
        assert model._training.attrs is None
        peaks = [self._peak_matrices(
            lambda: fit_cwr(table, ["x1", "x2"], r=r, bandwidth=0.5))
            for r in (1.0, 0.5)]
        assert peaks[0] < peaks[1] - 0.5
        # The scaled geographic matrix and one kernel: the raw matrix is
        # scaled in place and the r = 1 blend is that matrix itself.
        assert peaks[0] < 2.5

    @pytest.mark.parametrize("r, limit", [(1.0, 1.5), (0.5, 2.5)])
    def test_training_distances_scale_in_place(self, r, limit):
        # Each raw matrix is divided by its scale in place, so building
        # holds one n x n array per side, not a raw and a scaled one.
        # At r = 1 there is no attribute side and no attribute matrix.
        table = random_table(n=self.N, p=2, seed=47)
        transform = None if r == 1.0 else standardize(table, ["x1", "x2"])
        side = cwreg.local._TrainingSide(table, transform)
        distances = []
        assert self._peak_matrices(lambda: distances.extend(
            side.distances("max-scale"))) < limit
        assert (distances[2] is None) == (r == 1.0)

    def test_search_peak_is_the_training_distances(self, serial):
        # The scaled geographic and attribute matrices, the chunk's
        # systems, the kernel pipeline's buffer (one array at n = 300,
        # where a block holds half the rows) and a block's entries kept
        # for the grid peak near 3.9 n x n arrays (a whole blend made
        # 4.2); no step of the search may need more than 4.25. This is
        # the search on one thread: the three r share a chunk.
        table = random_table(n=self.N, p=2, seed=47)
        peak = self._peak_matrices(
            lambda: fit_cwr(table, ["x1", "x2"], r_grid=[0.0, 0.5, 1.0],
                            bandwidth_grid_size=3))
        assert peak < 4.25

    def test_two_worker_search_peak(self, two_workers, monkeypatch):
        # Each worker holds its own pipeline buffer and systems, so two
        # workers hold the training distances (2 n x n arrays) and up to
        # twice what one worker needs beyond them: 1.88 arrays, measured
        # on one thread (3.88 above). Both at their peak at once is 5.76;
        # measured peaks at n = 300 were 3.7 to 5.2 (with a whole blend
        # a worker, 5.6). One r a chunk, as the default 20-bandwidth
        # grid gives at n = 300: unpatched, these three candidates would
        # share one chunk, and one worker.
        rates_per_chunk(monkeypatch, 1)
        table = random_table(n=self.N, p=2, seed=47)
        peak = self._peak_matrices(
            lambda: fit_cwr(table, ["x1", "x2"], r_grid=[0.0, 0.5, 1.0],
                            bandwidth_grid_size=3))
        assert peak < 6.0


class TestStreamingMemory:
    """Only the scaled geographic and attribute training matrices are
    n x n: a fit reads each r's blend, grid and final fit, and a
    prediction its query rows, a block of rows at a time."""

    N = 1000

    @pytest.fixture(scope="class")
    def table(self):
        return random_table(n=self.N, p=2, seed=91)

    def _peak_matrices(self, run):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / (self.N * self.N * 8)

    def test_fixed_rate_fit(self, table):
        # The two training matrices, the systems of 3 bandwidths and a
        # pipeline buffer of at most 1 MiB: 2.16 measured, where a blend,
        # a triangle copy and its mask made 3.15.
        peak = self._peak_matrices(lambda: fit_cwr(
            table, ["x1", "x2"], r=0.5, bw_grid=[0.5, 1.0, 2.0]))
        assert peak < 2.5

    @pytest.mark.parametrize("mode", ["knn-coef", "local-fit"])
    def test_batch_prediction(self, table, mode):
        # A 1000-row batch needs a few blocks of query rows at a time:
        # 0.14 (knn-coef) and 0.33 (local-fit) measured, where the whole
        # query blend made 2.0.
        model = fit_cwr(table, ["x1", "x2"], r=0.5, bandwidth=1.0, mode=mode)
        rng = np.random.default_rng(92)
        coords = rng.uniform(0, 10, size=(self.N, 2))
        covariates = rng.normal(size=(self.N, 2))
        model.predict(coords[:1], covariates[:1])
        assert self._peak_matrices(
            lambda: model.predict(coords, covariates)) < 0.5


class TestRowSources:
    """Rows read a block at a time are the rows of the whole matrix."""

    @pytest.mark.parametrize("cells", [None, 16 * 90])
    @pytest.mark.parametrize("r", [0.0, 0.37, 1.0, None])
    def test_training_rows_equal_blend_distances(self, monkeypatch, r,
                                                 cells):
        # In blocks of 8 rows and in one block, as the whole blend that
        # _blend_rows writes; r None has no attribute side (r = 1).
        if cells:
            monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", cells)
        table = random_table(n=90, p=2, seed=93)
        transform = None if r is None else standardize(table, ["x1", "x2"])
        side = cwreg.local._TrainingSide(table, transform)
        geo, _, attr, _ = side.distances("max-scale")
        r = 1.0 if r is None else r
        D = geo if attr is None else _blend_rows(geo, attr, r,
                                                 np.empty((90, 90)))
        rows = cwreg.local._training_rows(geo, attr, r)
        grid = bandwidth_grid(D, size=5)
        assert cwreg.local._grid(rows, 5, np.empty((180, 90))) == grid
        for loo in (True, False):
            got = cwreg.local._local_systems(side.design, rows, grid, loo)
            whole = cwreg.local._local_systems(
                side.design, cwreg.local._array_rows(D), grid, loo)
            for a, b in zip(got, whole):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cells", [None, 16 * 60])
    @pytest.mark.parametrize("mode", ["knn-coef", "local-fit"])
    @pytest.mark.parametrize("r", [0.0, 0.4, 1.0])
    def test_query_rows_equal_whole_blend(self, monkeypatch, r, mode, cells):
        # A batch of 100 queries, in blocks of 8 rows or in one block,
        # predicts as the whole query blend does.
        if cells:
            monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", cells)
        table = random_table(n=60, p=2, seed=94)
        model = fit_cwr(table, ["x1", "x2"], r=r, bandwidth=0.8, mode=mode)
        rng = np.random.default_rng(95)
        qc, qx = rng.uniform(0, 10, size=(100, 2)), rng.normal(size=(100, 2))
        D = cwreg.local._query_blended(model.fit, model._training, qc, qx)
        if mode == "knn-coef":
            beta = model.fit.coefficients[cwreg.local._nearest(D, 3)]
            beta = beta.mean(axis=1)
        else:
            beta = cwreg.local._solve_rows(
                model._training.design, cwreg.local._array_rows(D),
                model.fit.bandwidth, "query")[0]
        expected = (design_matrix(qx) * beta).sum(axis=1)
        assert model.predict(qc, qx).tobytes() == expected.tobytes()


def grid_scores_one_at_a_time(X, y, D, grid, scoring):
    """_grid_scores with one kernel and one batched solve per candidate:
    each kernel is exp(s * -d^2), s = (1 / h)^2 clamped to the largest
    float, and its normal equations are built on the pipeline's row
    blocks."""
    n = len(y)
    edges = cwreg.local._row_blocks(n, n, 1)[0]
    design = BatchedDesign(X, y)
    scores, n_regularized, n_failed = [], [], []
    for h in grid:
        with np.errstate(over="ignore"):
            s = min(np.square(1.0 / np.float64(h)), np.finfo(float).max)
            W = np.exp(np.square(D) * -s)
        if scoring == "loo":
            np.fill_diagonal(W, 0.0)
        blocks = [(W[a:b] @ design.outer, W[a:b] @ design.xy)
                  for a, b in zip(edges, edges[1:])]
        N, c = (np.concatenate(parts) for parts in zip(*blocks))
        betas, regularized, failed = solve_wls_batched(
            N.reshape(-1, X.shape[1], X.shape[1]), c)
        n_regularized.append(int(regularized.sum()))
        n_failed.append(int(failed.sum()))
        if np.any(failed):
            scores.append(np.inf)
            continue
        pred = np.einsum("ij,ij->i", X, betas)
        scores.append(float(np.sqrt(np.mean((y - pred) ** 2))))
    return scores, n_regularized, n_failed


def grid_problem(n, q, seed):
    """Design, response and max-scaled distances of n random points."""
    rng = np.random.default_rng(seed)
    X = design_matrix(rng.normal(size=(n, q)))
    y = X[:, 1] + rng.normal(size=n)
    coords = rng.uniform(0, 10, size=(n, 2))
    D = brute_force_distance_matrix(coords, coords)
    D /= D.max()
    return X, y, D


class TestGridScores:
    """The row-block pipeline scores exactly as one candidate at a time."""

    # With q covariates and up to 21 candidates: n = 30, 100 and 80
    # (q = 7) take one row block, n = 300 blocks of 152 and 148 rows
    # and n = 370 of 128, 128 and 114; a kernel tile holds 12 to 21
    # bandwidths at n <= 100 and one from n = 300.
    @pytest.mark.parametrize("n, q", [(30, 2), (100, 2), (370, 2),
                                      (300, 2), (80, 7)],
                             ids=["30", "100", "370", "300", "80x7"])
    @pytest.mark.parametrize("size", [1, 7, 20])
    @pytest.mark.parametrize("scoring", ["loo", "insample"])
    def test_equal_to_one_candidate_at_a_time(self, n, q, size, scoring):
        X, y, D = grid_problem(n, q, n + size)
        grid = bandwidth_grid(D, size=size)
        if size > 1:
            # No weight but a self weight survives 1e-300: under "loo"
            # every location fails, and the candidate scores inf. Its
            # systems share one solve with every other candidate's.
            grid.insert(size // 2, 1e-300)
        result = grid_scores(BatchedDesign(X, y), D, grid, scoring)
        assert result == grid_scores_one_at_a_time(X, y, D, grid, scoring)
        scores, _, n_failed = result
        if size > 1 and scoring == "loo":
            assert scores[size // 2] == np.inf
            assert n_failed[size // 2] == n
            assert np.all(np.isfinite(np.delete(scores, size // 2)))

    @pytest.mark.parametrize("n", [65, 129, 200])
    def test_block_size_leaves_scores_unchanged(self, monkeypatch, n):
        # Blocks of 8 rows and of up to 64 give the same bits. n = 65
        # and 129 are j 8 + 1: in blocks of 8 their last row joins the
        # block before it, so no product has a single row.
        X, y, D = grid_problem(n, 2, n)
        grid = bandwidth_grid(D, size=20)
        results, blocks = [], []
        for limit in (8, 64):
            monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", 2 * limit * n)
            edges = cwreg.local._row_blocks(n, n, len(grid))[0]
            assert min(np.diff(edges)) >= 2
            blocks.append(edges[1])
            results.append(grid_scores(
                BatchedDesign(X, y), D, grid, "loo"))
        assert blocks[0] == 8 and blocks[1] > 8
        assert results[0] == results[1]

    def test_default_search_solves_chunks(self, monkeypatch):
        # At n = 160 and p = 3 a chunk holds 3 r: 3 x 20 x 160 systems
        # of 12 cells fit 2^17. The 60 bandwidths of each chunk share
        # one solve, 34 in all, plus one for the final fit.
        calls, systems = [], []

        def counting(N, c):
            result = solve_wls_batched(N, c)
            calls.append(1)
            systems.append(result[0].shape[0])
            return result

        monkeypatch.setattr(cwreg.local, "solve_wls_batched", counting)
        table = random_table(n=160, p=2, seed=49)
        fit_cwr(table, ["x1", "x2"])
        assert cwreg.local._rates_per_chunk(160, 3, 20) == 3
        assert len(calls) == 34 + 1
        # Two threads may finish the chunks in either order.
        assert sorted(systems) == [160, 2 * 20 * 160] + [3 * 20 * 160] * 33

    def test_row_blocks_fit_the_budget(self, monkeypatch):
        # The fewest blocks of at most max(8, budget // 2n) rows, rounded
        # down to a multiple of 8, each the same multiple of 8 rows but
        # the last, which never holds a single row unless m = 1. A
        # block's squared distances plus a tile of t kernels fit the
        # budget; the tiles are as few as fit and as even as can be. At
        # n = 160 one block and 5 tiles of 4, at n = 80 two tiles of 10
        # (19 would fit), at n = 1000 blocks of 64 and tiles of 1.
        assert cwreg.local._row_blocks(160, 160, 20) == ([0, 160], 160, 4)
        assert cwreg.local._row_blocks(80, 80, 20) == ([0, 80], 80, 10)
        assert cwreg.local._row_blocks(1000, 1000, 20)[1:] == (64, 1)
        for budget in (2 ** 10, 2 ** 14, cwreg.local._BLOCK_CELLS):
            monkeypatch.setattr(cwreg.local, "_BLOCK_CELLS", budget)
            for n in range(2, 420, 7):
                most = max(8, budget // (2 * n) // 8 * 8)
                for m in (1, 2, 9, n - 1, n, n + 1, 3 * n + 1):
                    for size in (1, 2, 7, 21):
                        edges, B, t = cwreg.local._row_blocks(m, n, size)
                        rows = np.diff(edges)
                        assert edges[0] == 0 and edges[-1] == m
                        assert len(rows) == -(-m // most) or (
                            m % most == 1 and len(rows) == m // most)
                        assert min(rows) >= min(m, 2)
                        assert np.all(rows[:-1] == rows[0])
                        assert len(rows) == 1 or rows[0] % 8 == 0
                        assert B == max(rows) <= most + 1
                        assert 1 <= t <= size
                        if 2 * B * n > budget:
                            continue
                        fits = min(size, budget // (B * n) - 1)
                        assert (1 + t) * B * n <= budget
                        assert -(-size // t) == -(-size // fits)
                        assert t == 1 or -(-size // (t - 1)) > -(-size // t)


class TestSelectBandwidth:
    """Bandwidth search at a fixed r: fit_cwr with a bw_grid."""

    def test_exhaustive_loo_verification(self):
        # Recompute every candidate's leave-one-out RMSE with explicit
        # loops and check both the scores and the argmin.
        table = random_table(n=12, p=1, seed=43)
        geo = brute_force_distance_matrix(table.coords, table.coords)
        D = geo / geo.max()
        grid = [0.1, 0.3, 0.9, 2.7]
        model = fit_cwr(table, r=1.0, bw_grid=grid)
        h, trace = model.fit.bandwidth, model.traces["bandwidth"]
        expected = [loo_rmse_by_hand(table, D, hh) for hh in grid]
        # Two different normal-equation routes (batched solve vs. a
        # plain inverse) agree to solver precision, not exactly.
        np.testing.assert_allclose(trace.scores, expected, rtol=1e-7)
        assert h == grid[int(np.argmin(expected))]
        assert trace.selected == h
        assert trace.selected_score == pytest.approx(min(expected), rel=1e-12)

    def test_globally_linear_data_prefers_largest_bandwidth(self):
        # True model is global; smoothing everything wins.
        rng = np.random.default_rng(44)
        coords = rng.uniform(0, 10, size=(40, 2))
        x1 = rng.normal(size=40)
        y = 1.0 + 2.0 * x1 + rng.normal(scale=0.5, size=40)
        table = ObservationTable(ids=[f"g{i}" for i in range(40)],
                                 coords=coords, y=y,
                                 covariates=x1[:, None],
                                 covariate_names=["x1"])
        grid = [0.01, 1e6]
        model = fit_cwr(table, r=1.0, bw_grid=grid)
        assert model.fit.bandwidth == 1e6

    def test_tied_scores_take_first_candidate(self):
        # Constant response, so every candidate scores about zero. The
        # bandwidths dwarf the max-scaled distances (at most 1), so every
        # kernel weight is exactly 1.0: each candidate solves the same
        # systems, the scores tie exactly under any solver, and the
        # first candidate must win.
        rng = np.random.default_rng(45)
        table = ObservationTable(
            ids=[f"k{i}" for i in range(10)],
            coords=rng.uniform(0, 5, size=(10, 2)),
            y=np.full(10, 4.2),
            covariates=rng.normal(size=(10, 1)),
            covariate_names=["x1"],
        )
        grid = [1e9, 2e9, 4e9]
        model = fit_cwr(table, r=1.0, bw_grid=grid)
        np.testing.assert_allclose(model.traces["bandwidth"].scores, 0.0,
                                   atol=1e-10)
        assert model.fit.bandwidth == 1e9

    def test_underflowing_grid_raises_search_failure(self):
        # Bandwidths far below any pairwise distance zero out all
        # leave-one-out weights at every location.
        table = random_table(n=10, p=1, seed=46)
        with pytest.raises(SearchFailureError):
            fit_cwr(table, r=1.0, bw_grid=[1e-300])

    def test_bad_grid_rejected(self):
        table = random_table(n=10, p=1, seed=47)
        with pytest.raises(ParameterError):
            fit_cwr(table, r=1.0, bw_grid=[])
        with pytest.raises(ParameterError):
            fit_cwr(table, r=1.0, bw_grid=[1.0, -2.0])

    @pytest.mark.parametrize("kwargs", [
        {"r": True}, {"r": "0.5"}, {"r": 0.5, "bandwidth": True},
        {"r_grid": [False, True]}, {"r_grid": [0.5, "1"]},
        {"r": 0.5, "bw_grid": [True]}, {"r": 0.5, "bw_grid": [0.5, "1"]},
        {"r": 0.5, "bandwidth_grid_size": 2.5},
        {"r": 0.5, "bandwidth_grid_size": True},
    ], ids=["bool-r", "string-r", "bool-bandwidth", "bool-r-grid",
            "string-r-grid", "bool-bw-grid", "string-bw-grid",
            "fractional-grid-size", "bool-grid-size"])
    def test_numbers_refuse_bools_and_fractions(self, kwargs):
        # A bool is not a number and a grid size is an integer: read as
        # numbers, r=True would fit a GWR and bandwidth=True h = 1.0.
        table = random_table(n=10, p=1, seed=47)
        with pytest.raises(ParameterError):
            fit_cwr(table, ["x1"], **kwargs)

    def test_unknown_scoring_rejected(self):
        table = random_table(n=10, p=1, seed=48)
        with pytest.raises(ParameterError):
            select_rate(table, ["x1"], scoring="cv5")


class TestSelectRate:
    def test_exact_tie_goes_to_larger_r(self):
        # Geo and attribute distances coincide entrywise, so r = 0 and
        # r = 1 (both exact-copy blends) tie to the last bit and the
        # tie rule must pick r = 1.
        table = tie_table()
        spec, trace = select_rate(table, ["x1", "x2"], r_grid=[0.0, 1.0],
                                  bandwidth_grid_size=5)
        assert trace.scores[0] == trace.scores[1]
        assert spec.r == 1.0

    def test_geo_regime_selects_pure_geographic(self):
        from cwreg.data import generate_synthetic
        table, _ = generate_synthetic("geo", n=120, sigma=0.5, seed=3)
        spec, trace = select_rate(table, ["x1"],
                                  r_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
                                  bandwidth_grid_size=8)
        assert spec.r >= 0.75
        assert trace.parameter == "rate"
        assert trace.selected_bandwidth == trace.bandwidths[
            trace.candidates.index(spec.r)]

    def test_attr_regime_selects_blended(self):
        from cwreg.data import generate_synthetic
        table, _ = generate_synthetic("attr", n=120, sigma=0.5, seed=3)
        spec, _ = select_rate(table, ["x1"],
                              r_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
                              bandwidth_grid_size=8)
        assert spec.r < 0.5

    def test_selected_never_worse_than_pure_geographic(self):
        # The r = 1 candidate is always in these grids, so the selected
        # score can only match or beat it.
        from cwreg.data import generate_synthetic
        for regime, seed in (("geo", 1), ("attr", 2), ("mixed", 3)):
            table, _ = generate_synthetic(regime, n=80, sigma=1.0, seed=seed)
            _, trace = select_rate(table, ["x1"],
                                   r_grid=[0.0, 0.5, 1.0],
                                   bandwidth_grid_size=6)
            score_at_one = trace.scores[trace.candidates.index(1.0)]
            assert trace.selected_score <= score_at_one

    def test_fixed_bandwidth_strategy(self):
        table = random_table(n=20, p=2, seed=49)
        spec, trace = select_rate(table, ["x1", "x2"], h_strategy=0.8,
                                  r_grid=[0.0, 0.5, 1.0])
        assert set(trace.bandwidths) == {0.8}
        assert trace.selected_bandwidth == 0.8
        assert spec.attribute_columns == ("x1", "x2")

    def test_insample_scoring_criterion_label(self):
        table = random_table(n=20, p=1, seed=50)
        _, trace = select_rate(table, ["x1"], r_grid=[0.0, 1.0],
                               scoring="insample", bandwidth_grid_size=5)
        assert trace.criterion == "training_rmse"
        assert all(np.isfinite(s) for s in trace.scores)

    def test_grid_validation(self):
        table = random_table(n=15, p=1, seed=51)
        with pytest.raises(ParameterError):
            select_rate(table, ["x1"], r_grid=[])
        with pytest.raises(ParameterError):
            select_rate(table, ["x1"], r_grid=[0.5, 1.2])
        with pytest.raises(ParameterError):
            select_rate(table, ["x1"], h_strategy=-1.0)

    def test_trace_serialization_round_trip(self):
        from cwreg.local import HyperSearchTrace
        table = random_table(n=15, p=1, seed=52)
        _, trace = select_rate(table, ["x1"], r_grid=[0.0, 1.0],
                               bandwidth_grid_size=4)
        clone = HyperSearchTrace.from_dict(trace.to_dict())
        assert clone.candidates == trace.candidates
        assert clone.scores == trace.scores
        assert clone.selected == trace.selected
        assert clone.bandwidths == trace.bandwidths

    def test_infinite_scores_serialize_as_null(self):
        from cwreg.local import HyperSearchTrace
        trace = HyperSearchTrace(parameter="bandwidth", criterion="loo_rmse",
                                 candidates=[1.0, 2.0],
                                 scores=[np.inf, 0.5],
                                 selected=2.0, selected_score=0.5)
        doc = trace.to_dict()
        assert doc["scores"][0] is None
        clone = HyperSearchTrace.from_dict(doc)
        assert clone.scores[0] == np.inf


class TestPredictAt:
    def test_knn_k1_coincident_query_returns_fitted_value(self):
        table = random_table(n=18, p=2, seed=53)
        spec = DistanceSpec(r=0.5, attribute_columns=("x1", "x2"))
        fit = fit_local(table, spec, 0.6)
        i = 7
        X = design_matrix(table.covariates)
        got = predict_at(fit, table, table.coords[i], table.covariates[i],
                         mode="knn-coef", k=1)
        assert got[0] == pytest.approx(float(X[i] @ fit.coefficients[i]),
                                       rel=1e-12)

    def test_knn_full_k_averages_all_coefficients(self):
        table = random_table(n=12, p=1, seed=54)
        fit = fit_local(table, DistanceSpec(r=1.0), 0.8)
        query_cov = np.array([[0.3]])
        got = predict_at(fit, table, np.array([[5.0, 5.0]]), query_cov,
                         mode="knn-coef", k=table.n)
        beta_bar = fit.coefficients.mean(axis=0)
        expected = float(design_matrix(query_cov)[0] @ beta_bar)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_knn_distance_ties_break_by_row_index(self):
        # Two training points coincide in every respect; the averaged
        # neighbor set for k=1 must be the lower row index.
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 3.0], [4.0, 4.0]])
        covs = np.array([[1.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 5.0, 2.0, 3.0])
        table = ObservationTable(ids=list("abcd"), coords=coords, y=y,
                                 covariates=covs, covariate_names=["x1"])
        fit = fit_local(table, DistanceSpec(r=1.0), 2.0)
        got = predict_at(fit, table, [[0.0, 0.0]], [[1.0]], k=1)
        X = design_matrix(table.covariates)
        assert got[0] == pytest.approx(float(X[0] @ fit.coefficients[0]),
                                    rel=1e-12)

    def test_local_fit_mode_at_training_point_matches_fit(self):
        # A query at a training location sees the same weights the
        # training fit saw, hence the same coefficients.
        table = random_table(n=16, p=2, seed=55)
        spec = DistanceSpec(r=0.5, attribute_columns=("x1", "x2"))
        fit = fit_local(table, spec, 0.7)
        X = design_matrix(table.covariates)
        for i in (0, 5, 11):
            got = predict_at(fit, table, table.coords[i],
                             table.covariates[i], mode="local-fit")
            assert got[0] == pytest.approx(float(X[i] @ fit.coefficients[i]),
                                           rel=1e-10)

    def test_modes_agree_on_smooth_data(self):
        from cwreg.data import generate_synthetic
        table, _ = generate_synthetic("geo", n=100, sigma=0.1, seed=6)
        fit = fit_local(table, DistanceSpec(r=1.0), 0.15)
        rng = np.random.default_rng(3)
        coords = rng.uniform(200, 800, size=(10, 2))
        covs = rng.normal(size=(10, 1))
        knn = predict_at(fit, table, coords, covs, mode="knn-coef", k=3)
        loc = predict_at(fit, table, coords, covs, mode="local-fit")
        np.testing.assert_allclose(knn, loc, rtol=0.15, atol=0.5)

    def test_local_fit_without_weight_names_the_query(self):
        # 1e7 away from every training point, every kernel weight at
        # h = 0.01 underflows to zero.
        table = random_table(n=16, p=2, seed=57)
        fit = fit_local(table, DistanceSpec(r=1.0), 0.01)
        message = "local fit at query 1: all observation weights are zero"
        with pytest.raises(DegenerateWeightsError, match=f"^{message}$"):
            predict_at(fit, table, [table.coords[0], [1e7, 1e7]],
                       [table.covariates[0], [0.0, 0.0]], mode="local-fit")

    # The solver adds a ridge into N, NaN where a zero weight meets an
    # overflowing square, so each weight sum N[0, 0] is read before it.
    @pytest.mark.parametrize("h", [0.01, 0.5])
    def test_ridge_failure_names_the_training_location(self, h):
        # x1 of order 1e160 squares to inf: every weight is positive at
        # h = 0.5 and the trace overflows; at h = 0.01 far weights are
        # zero and the trace is NaN. Either way the ridge cannot help.
        message = ("local fit at training location 0 cannot be solved, "
                   "even with the ridge")
        with pytest.raises(SingularFitError, match=f"^{message}$"):
            fit_local(huge_covariates(random_table(n=16, p=1, seed=57)),
                      DistanceSpec(r=1.0), h)

    def test_nan_system_names_the_training_location(self):
        # With two covariates of order 1e160 the cross products overflow
        # to +inf and -inf, whose sum makes X'WX NaN. The solver flags
        # such a system without calling eigvalsh on it (which raised
        # LinAlgError), and its NaN ridge fails it.
        message = ("local fit at training location 0 cannot be solved, "
                   "even with the ridge")
        with pytest.raises(SingularFitError, match=f"^{message}$"):
            fit_local(huge_covariates(random_table(n=30, p=2, seed=1)),
                      DistanceSpec(r=1.0), 0.5)

    @pytest.mark.parametrize("where, error, message", [
        ("at a training point", SingularFitError,
         "local fit at query 0 cannot be solved, even with the ridge"),
        ("far away", DegenerateWeightsError,
         "local fit at query 0: all observation weights are zero"),
    ])
    def test_local_fit_with_overflowing_squares_names_the_query(
            self, where, error, message):
        # The query twin of the test above, and a query 1e7 away whose
        # weights are all zero at h = 0.01 while its trace is NaN.
        table = random_table(n=16, p=1, seed=57)
        fit = fit_local(table, DistanceSpec(r=1.0), 0.01)
        query = table.coords[:1] if where == "at a training point" else [
            [1e7, 1e7]]
        with pytest.raises(error, match=f"^{message}$"):
            predict_at(fit, huge_covariates(table), query, [[0.0]],
                       mode="local-fit")

    @pytest.mark.parametrize("q", [1, 6, 12])
    def test_knn_row_alone_equals_its_batch_row(self, q):
        # At p = 2, 7 and 13 a row predicted alone gets the bits it gets
        # in a batch of 120.
        if q == 1:
            table, _ = generate_synthetic("attr", n=100, sigma=2.0, seed=3)
            query, _ = generate_synthetic("attr", n=120, sigma=2.0, seed=4)
        else:
            table, _ = generate_hedonic(n=100, seed=3)
            query, _ = generate_hedonic(n=120, seed=4)
        names = table.covariate_names[:q]
        model = fit_cwr(table.with_covariates(names), names,
                        r_grid=[0.0, 0.5, 1.0])
        coords, covariates = query.coords, query.covariate_matrix(names)
        batch = model.predict(coords, covariates)
        alone = [model.predict(coords[i:i + 1], covariates[i:i + 1])[0]
                 for i in range(len(coords))]
        assert np.array_equal(alone, batch)

    def test_validation(self):
        table = random_table(n=10, p=2, seed=56)
        fit = fit_local(table, DistanceSpec(r=1.0), 0.5)
        with pytest.raises(ParameterError):
            predict_at(fit, table, [[0.0, 0.0]], [[1.0, 1.0]], mode="spline")
        with pytest.raises(ParameterError):
            predict_at(fit, table, [[0.0, 0.0]], [[1.0, 1.0]], k=0)
        with pytest.raises(ParameterError):
            predict_at(fit, table, [[0.0, 0.0]], [[1.0, 1.0]], k=11)
        with pytest.raises(DimensionError):
            predict_at(fit, table, [[0.0, 0.0]], [[1.0]])

    @pytest.mark.parametrize("r", [0.5, 1.0])
    @pytest.mark.parametrize("coords, covariates, error", [
        ([[0.0, 0.0, 0.0]], [[1.0, 1.0]], DimensionError),
        ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0]], DimensionError),
        ([[[0.0, 0.0]]], [[1.0, 1.0]], DimensionError),
        ([[0.0, 0.0]], [[[1.0, 1.0]]], DimensionError),
        ([[np.nan, 0.0]], [[1.0, 1.0]], ParameterError),
        ([[0.0, 0.0]], [[1.0, np.inf]], ParameterError),
        ([[0.0, 0.0]], [[np.nan, 1.0]], ParameterError),
        ([[0.0, 0.0]], [[1.0]], DimensionError),
        ([[0.0, 0.0]], [[1.0, 1.0, 1.0]], DimensionError),
        ([[0.0, 0.0]], [["1.0", 1.0]], ParameterError),
        ([["east", 0.0]], [[1.0, 1.0]], ParameterError),
        ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0]], ParameterError),
    ], ids=["three-coordinates", "row-counts-differ", "3d-coords",
            "3d-covariates", "nan-coordinate", "inf-covariate",
            "nan-covariate", "one-column-short", "one-column-over",
            "string-covariate", "string-coordinate", "ragged-covariates"])
    def test_query_arrays_checked(self, r, coords, covariates, error):
        # Every model type refuses a malformed query with the same error:
        # the local model (a GWR at r = 1) in both prediction modes, OLS
        # and boosted trees.
        table = random_table(n=10, p=2, seed=56)
        model = fit_cwr(table, ["x1", "x2"], r=r, bandwidth=0.5)
        models = [dataclasses.replace(model, mode=mode)
                  for mode in cwreg.local.PREDICT_MODES]
        models += [fit_model(name, table, ComparisonConfig(boost_trees=3))[0]
                   for name in ("ols", "lsboost")]
        for each in models:
            with pytest.raises(error):
                each.predict(coords, covariates)


def full_sort(D, k):
    """The selection rule by definition: a full stable sort per row."""
    return np.argsort(D, axis=1, kind="stable")[:, :k]


@st.composite
def distance_batches(draw):
    """(D, k): rows of few distinct values (many ties) or of distinct
    values, some columns duplicated, k anywhere in [1, n]."""
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 6))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    rows = []
    for _ in range(m):
        if draw(st.booleans()):
            levels = draw(st.integers(1, 4))
            cells = st.integers(0, levels).map(lambda v: v / 4)
        else:
            cells = st.floats(0.0, 1e3, allow_nan=False)
        rows.append(draw(st.lists(cells, min_size=n, max_size=n)))
    D = np.array(rows, dtype=float)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=3)):
        D[:, a] = D[:, b]
    return D, k


def grid_table(n=24, seed=0):
    """Training records on an integer grid: distances tie often."""
    rng = np.random.default_rng(seed)
    return ObservationTable(
        ids=[f"g{i}" for i in range(n)],
        coords=rng.integers(0, 4, size=(n, 2)).astype(float),
        y=rng.normal(size=n),
        covariates=rng.integers(0, 3, size=(n, 1)).astype(float),
        covariate_names=["x1"],
    )


class TestNearestSelection:
    @settings(max_examples=300, deadline=None)
    @given(distance_batches())
    @example((np.array([[0.5, 0.25, 0.25, 0.75]]), 2))
    @example((np.array([[0.5, 0.25, 0.25, 0.75]]), 1))
    @example((np.array([[0.5, 0.25, 0.25, 0.75]]), 4))
    def test_equals_full_stable_sort(self, batch):
        D, k = batch
        np.testing.assert_array_equal(cwreg.local._nearest(D, k),
                                      full_sort(D, k))

    def test_batch_mixing_tied_and_untied_rows(self):
        D = np.array([
            [3.0, 1.0, 4.0, 1.5, 9.0, 2.6],  # no ties
            [2.0, 1.0, 2.0, 0.5, 2.0, 7.0],  # k-th distance tied past k
            [1.0, 1.0, 0.5, 4.0, 5.0, 6.0],  # ties inside the k nearest
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # everything tied
            [5.0, 4.0, 3.0, 2.0, 1.0, 0.0],  # descending
        ])
        for k in range(1, D.shape[1] + 1):
            np.testing.assert_array_equal(cwreg.local._nearest(D, k),
                                          full_sort(D, k))
        np.testing.assert_array_equal(cwreg.local._nearest(D, 3)[1],
                                      [3, 1, 0])

    @settings(max_examples=60, deadline=None)
    @given(r=st.sampled_from([0.0, 0.5, 1.0]),
           k=st.sampled_from([1, 2, 3, 24]),
           coords=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=8),
           x1=st.integers(0, 2))
    def test_knn_predictions_equal_full_sort_bit_for_bit(self, r, k, coords,
                                                         x1):
        table = grid_table()
        model = fit_cwr(table, ["x1"], r=r, bandwidth=1.0, k=k)
        qc = np.array(coords, dtype=float)
        qx = np.full((len(qc), 1), float(x1))
        got = model.predict(qc, qx)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cwreg.local, "_nearest", full_sort)
            expected = model.predict(qc, qx)
        assert got.tobytes() == expected.tobytes()


class TestPredictionState:
    def test_training_table_standardized_once_per_model(self, monkeypatch):
        # A fitted model predicts with the training side its fit built;
        # a loaded one builds its own on its first prediction.
        table = random_table(n=30, p=2, seed=70)
        fitted = [fit_cwr(table, ["x1", "x2"], r=0.4, bandwidth=0.8,
                          mode=mode) for mode in ("knn-coef", "local-fit")]
        loaded = [FittedCwr.from_dict(model.to_dict()) for model in fitted]
        calls = []
        original = StandardizationTransform.apply_table

        def counted(transform, tbl):
            calls.append(tbl)
            return original(transform, tbl)

        monkeypatch.setattr(StandardizationTransform, "apply_table", counted)
        rng = np.random.default_rng(8)
        for model, limit in [(m, 0) for m in fitted] + [(m, 1) for m in loaded]:
            calls.clear()
            for _ in range(50):
                model.predict(rng.uniform(0, 10, size=(1, 2)),
                              rng.normal(size=(1, 2)))
            assert len(calls) <= limit

    @pytest.mark.parametrize("mode", ["knn-coef", "local-fit"])
    def test_replaced_or_reassigned_table_is_used(self, mode):
        table = random_table(n=30, p=2, seed=71)
        model = fit_cwr(table, ["x1", "x2"], r=0.4, bandwidth=0.8, mode=mode)
        # Same ids and columns, other coordinates, covariates and y.
        other = random_table(n=30, p=2, seed=72)
        rng = np.random.default_rng(9)
        qc, qx = rng.uniform(0, 10, size=(5, 2)), rng.normal(size=(5, 2))
        own = model.predict(qc, qx)  # builds the model's state
        expected = predict_at(model.fit, other, qc, qx, mode=mode)
        assert not np.array_equal(own, expected)
        clone = dataclasses.replace(model, table=other)
        np.testing.assert_array_equal(clone.predict(qc, qx), expected)
        model.table = other
        np.testing.assert_array_equal(model.predict(qc, qx), expected)
        model.table = table
        np.testing.assert_array_equal(model.predict(qc, qx), own)

    def test_reassigned_fit_is_used(self):
        table = random_table(n=30, p=2, seed=73)
        model = fit_cwr(table, ["x1", "x2"], r=0.4, bandwidth=0.8)
        # Its standardization reads other columns, so the training side
        # the model holds does not fit it.
        other = fit_cwr(table, ["x2"], r=0.0, bandwidth=0.5).fit
        rng = np.random.default_rng(10)
        qc, qx = rng.uniform(0, 10, size=(5, 2)), rng.normal(size=(5, 2))
        model.predict(qc, qx)
        model.fit = other
        np.testing.assert_array_equal(model.predict(qc, qx),
                                      predict_at(other, table, qc, qx))

    @pytest.mark.parametrize("mode", ["knn-coef", "local-fit"])
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
    def test_query_blend_equals_blend_distances(self, monkeypatch, r, mode):
        # The blend written into the geographic query matrix is the one
        # _blend_rows writes from separate matrices into a new one, bit
        # for bit.
        def blend_route(fit, training, coords, covariates):
            geo = cdist(coords, training.table.coords) / fit.geo_scale
            if training.attrs is None:
                return geo
            z = fit.transform.apply(covariates[:, training.attr_index])
            attr = cdist(z, training.attrs) / fit.attr_scale
            return _blend_rows(geo, attr, fit.spec.r, np.empty(geo.shape))

        table = random_table(n=40, p=2, seed=74)
        model = fit_cwr(table, ["x1", "x2"], r=r, bandwidth=0.4, mode=mode)
        rng = np.random.default_rng(11)
        qc, qx = rng.uniform(0, 10, size=(7, 2)), rng.normal(size=(7, 2))
        training = cwreg.local._TrainingSide(table, model.fit.transform)
        D = cwreg.local._query_blended(model.fit, training, qc, qx)
        assert D.tobytes() == blend_route(model.fit, training, qc,
                                          qx).tobytes()
        own = model.predict(qc, qx)
        monkeypatch.setattr(cwreg.local, "_query_blended", blend_route)
        assert own.tobytes() == model.predict(qc, qx).tobytes()


def rebuilt(part, **changes):
    """A corruption that loads the document, then builds its model
    ("model") or the model's fit ("fit") again directly with `changes`."""
    def build(doc):
        model = FittedCwr.from_dict(doc)
        dataclasses.replace(model if part == "model" else model.fit,
                            **changes)
    return build


def select_another_rate(trace):
    """Make a rate trace select another r with that r's score and
    bandwidth: consistent in itself, but not the model's r."""
    i = next(i for i, r in enumerate(trace["candidates"])
             if r != trace["selected"] and trace["scores"][i] is not None)
    trace.update(selected=trace["candidates"][i],
                 selected_score=trace["scores"][i],
                 selected_bandwidth=trace["bandwidths"][i])


class TestFitCwr:
    def test_search_populates_rate_trace(self):
        table = random_table(n=30, p=1, seed=57)
        model = fit_cwr(table, attribute_columns=["x1"],
                        r_grid=[0.0, 0.5, 1.0], bandwidth_grid_size=5)
        assert "rate" in model.traces
        assert model.fit.spec.r in (0.0, 0.5, 1.0)
        assert model.fit.bandwidth == model.traces["rate"].selected_bandwidth

    def test_fixed_r_populates_bandwidth_trace(self):
        table = random_table(n=30, p=1, seed=58)
        model = fit_cwr(table, attribute_columns=["x1"], r=0.5,
                        bandwidth_grid_size=5)
        assert "bandwidth" in model.traces
        assert "rate" not in model.traces

    def test_fully_fixed_has_no_traces(self):
        table = random_table(n=30, p=1, seed=59)
        model = fit_cwr(table, attribute_columns=["x1"], r=1.0, bandwidth=0.5)
        assert model.traces == {}
        assert model.fit.bandwidth == 0.5

    def test_default_attribute_columns_exclude_dummies(self):
        t = random_table(n=20, p=2, seed=60)
        table = ObservationTable(
            ids=t.ids, coords=t.coords, y=t.y,
            covariates=np.column_stack([t.covariates,
                                        (t.covariates[:, 0] > 0) * 1.0]),
            covariate_names=["x1", "x2", "zone=b"],
            dummy_names=["zone=b"])
        model = fit_cwr(table, r=0.5, bandwidth=0.7)
        assert model.fit.spec.attribute_columns == ("x1", "x2")

    def test_predict_table_aligns_columns_by_name(self):
        table = random_table(n=25, p=2, seed=61)
        model = fit_cwr(table, r=1.0, bandwidth=0.5)
        # Same data with covariate columns swapped.
        swapped = ObservationTable(
            ids=table.ids, coords=table.coords, y=table.y,
            covariates=table.covariates[:, ::-1],
            covariate_names=["x2", "x1"])
        np.testing.assert_allclose(model.predict_table(table),
                                   model.predict_table(swapped), rtol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        table = random_table(n=25, p=2, seed=62)
        model = fit_cwr(table, attribute_columns=["x1", "x2"],
                        r_grid=[0.0, 0.5, 1.0], bandwidth_grid_size=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        # The file opens with the envelope save_model adds.
        assert list(json.loads(path.read_text()))[:3] == [
            "format", "version", "model_type"]
        clone = load_model(path)
        assert isinstance(clone, FittedCwr)
        rng = np.random.default_rng(7)
        coords = rng.uniform(0, 10, size=(6, 2))
        covs = rng.normal(size=(6, 2))
        np.testing.assert_array_equal(model.predict(coords, covs),
                                      clone.predict(coords, covs))
        assert clone.fit.spec == model.fit.spec
        assert clone.traces.keys() == model.traces.keys()
        assert clone.traces["rate"].scores == model.traces["rate"].scores

    def test_failed_rate_saves_null_bandwidth(self, tmp_path):
        # At r = 1 no location of the integer grid fits at h = 1e-6, so
        # that r has no bandwidth: the file holds null, which strict
        # JSON parsers accept, and loads back as NaN.
        model = fit_cwr(grid_table(n=30), ["x1"], r_grid=[0.0, 1.0],
                        bw_grid=[1e-6])
        assert model.traces["rate"].bandwidths[0] == 1e-6
        assert math.isnan(model.traces["rate"].bandwidths[1])
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(), parse_constant=reject_constant)
        assert doc["traces"]["rate"]["bandwidths"] == [1e-6, None]
        clone = load_model(path).traces["rate"].bandwidths
        assert clone[0] == 1e-6 and math.isnan(clone[1])
        # Nor does it have ridge or failure counts.
        for key in ("n_regularized", "n_failed"):
            assert doc["traces"]["rate"][key][1] is None
            assert (getattr(load_model(path).traces["rate"], key)
                    == getattr(model.traces["rate"], key))

    def test_load_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}',
                        encoding="utf-8")
        with pytest.raises(ParameterError):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["coefficients"][3].__setitem__(1, float("nan")),
        lambda doc: doc["coefficients"][0].__setitem__(0, float("inf")),
        lambda doc: doc.__setitem__("bandwidth", 0.0),
        lambda doc: doc.__setitem__("bandwidth", float("inf")),
        lambda doc: doc.__setitem__("geo_scale", -1.0),
        lambda doc: doc.__setitem__("geo_scale", float("nan")),
        lambda doc: doc.__setitem__("attr_scale", 0.0),
        lambda doc: doc.__setitem__("attr_scale", float("inf")),
        lambda doc: doc["standardization"]["columns"].__setitem__(0, "zz"),
        lambda doc: doc["standardization"]["means"].__setitem__(
            0, float("nan")),
        lambda doc: doc["standardization"]["stds"].__setitem__(0, 0.0),
        lambda doc: doc["standardization"]["stds"].pop(),
        lambda doc: doc.__setitem__("standardization", None),
        lambda doc: doc.__setitem__("bandwidth", "0.5"),
        lambda doc: doc.__setitem__("bandwidth", True),
        lambda doc: doc.__setitem__("geo_scale", "0.5"),
        lambda doc: doc.__setitem__("geo_scale", True),
        lambda doc: doc.__setitem__("attr_scale", "0.5"),
        lambda doc: doc.__setitem__("attr_scale", True),
        lambda doc: doc["spec"].__setitem__("r", "0.5"),
        lambda doc: doc["spec"].__setitem__("r", True),
        lambda doc: doc.__setitem__("mode", "foo"),
        lambda doc: doc.__setitem__("k", 0),
        lambda doc: doc.__setitem__("k", 10 ** 6),
        lambda doc: doc["training"]["coords"][0].__setitem__(1, "1.5"),
        lambda doc: doc["training"]["coords"][2].__setitem__(0, True),
        lambda doc: doc["training"]["y"].__setitem__(4, "3"),
        lambda doc: doc["training"]["covariates"][1].__setitem__(0, False),
        lambda doc: doc["coefficients"][5].__setitem__(2, "2"),
        lambda doc: doc["standardization"]["means"].__setitem__(0, "0.1"),
        lambda doc: doc["standardization"]["stds"].__setitem__(1, True),
        lambda doc: doc["regularized"].__setitem__(3, "yes"),
        lambda doc: doc["regularized"].__setitem__(3, 7),
        lambda doc: doc["training"]["ids"].__setitem__(0, 12345),
        lambda doc: doc["training"]["ids"].__setitem__(0, [1]),
        rebuilt("fit", bandwidth=0.0),
        rebuilt("fit", bandwidth=float("nan")),
        rebuilt("fit", geo_scale=-1.0),
        rebuilt("fit", attr_scale=float("inf")),
        rebuilt("fit", transform=None),
        rebuilt("model", mode="foo"),
        rebuilt("model", k=0),
        rebuilt("model", k=21),
        rebuilt("model", k=True),
        rebuilt("model", k=2.0),
        rebuilt("model", traces={"rate": HyperSearchTrace(
            "rate", "loo_rmse", [0.5, 1.0], [2.0, 1.0], 1.0, 1.0,
            selected_bandwidth=0.8)}),
        rebuilt("model", traces={"rate": HyperSearchTrace(
            "rate", "loo_rmse", [0.5, 1.0], [1.0, 2.0], 0.5, 1.0,
            selected_bandwidth=0.9)}),
        rebuilt("model", traces={"bandwidth": HyperSearchTrace(
            "bandwidth", "loo_rmse", [0.8, 0.9], [2.0, 1.0], 0.9, 1.0)}),
    ], ids=["nan-coefficient", "inf-coefficient", "zero-bandwidth",
            "inf-bandwidth", "negative-geo-scale", "nan-geo-scale",
            "zero-attr-scale", "inf-attr-scale",
            "standardization-column-not-covariate", "nan-mean", "zero-std",
            "stds-too-short", "blended-without-standardization",
            "string-bandwidth", "bool-bandwidth", "string-geo-scale",
            "bool-geo-scale", "string-attr-scale", "bool-attr-scale",
            "string-r", "bool-r", "unknown-mode", "zero-k", "k-above-n",
            "string-coord", "bool-coord", "string-y", "bool-covariate",
            "string-coefficient", "string-mean", "bool-std",
            "string-regularized", "regularized-not-0-or-1", "number-id",
            "list-id", "built-zero-bandwidth", "built-nan-bandwidth",
            "built-negative-geo-scale", "built-inf-attr-scale",
            "built-blended-without-standardization", "built-unknown-mode",
            "built-zero-k", "built-k-above-n", "built-bool-k",
            "built-float-k", "built-rate-trace-other-r",
            "built-rate-trace-other-bandwidth",
            "built-bandwidth-trace-other-bandwidth"])
    def test_load_rejects_invalid_values(self, corrupt):
        # An edit to the document must fail its load, and a value given
        # to a constructor directly ("built-") must fail it as well.
        table = random_table(n=20, p=2, seed=67)
        doc = fit_cwr(table, ["x1", "x2"], r=0.5, bandwidth=0.8).to_dict()
        FittedCwr.from_dict(doc)
        with pytest.raises(ParameterError):
            corrupt(doc)
            FittedCwr.from_dict(doc)

    @pytest.mark.parametrize("key, edit, error", [
        ("coefficients", lambda a: np.where(a == a[3, 1], np.nan, a),
         ParameterError),
        ("coefficients", lambda a: np.where(a == a[0, 0], -np.inf, a),
         ParameterError),
        ("coefficients", lambda a: a[:5], DimensionError),
        ("coefficients", lambda a: a[:, :2], DimensionError),
        ("regularized", lambda a: a[1:], DimensionError),
        ("regularized", lambda a: np.full(a.shape, 2), ParameterError),
        ("regularized", lambda a: a.astype(str), ParameterError),
    ], ids=["nan-coefficient", "inf-coefficient", "five-rows",
            "two-columns", "short-flags", "flags-not-0-or-1", "string-flags"])
    def test_constructed_model_matches_its_table(self, key, edit, error):
        # A model built directly holds one finite coefficient row of p
        # and one 0/1 flag per training row, or a NaN coefficient would
        # predict NaN and five rows for 20 would index out of range.
        table = random_table(n=20, p=2, seed=67)
        fit = fit_cwr(table, ["x1", "x2"], r=0.5, bandwidth=0.8).fit
        fit = dataclasses.replace(fit, **{key: edit(getattr(fit, key))})
        with pytest.raises(error):
            FittedCwr(fit=fit, table=table).predict([[1.0, 1.0]],
                                                    [[0.0, 0.0]])

    @pytest.mark.parametrize("key, index, value", [
        ("candidates", 0, True),
        ("candidates", 1, "0.5"),
        ("scores", 0, "1"),
        ("scores", 2, float("nan")),
        ("bandwidths", 1, "0.2"),
        ("bandwidths", 1, False),
        ("n_regularized", 0, 2.7),
        ("n_regularized", 0, True),
        ("n_failed", 2, "0"),
        ("selected", None, "0.5"),
        ("selected_score", None, True),
        ("selected_bandwidth", None, "0.2"),
        ("scores", None, [1.0, 1.0, 1.0, 1.0]),
        ("bandwidths", None, [0.5, 0.5]),
        ("n_failed", None, [0]),
        ("parameter", None, 5),
        ("parameter", None, "h"),
        ("criterion", None, 7),
        ("criterion", None, "rmse"),
        ("selected_score", None, 123.0),
        ("selected", None, 0.77),
        (None, None, select_another_rate),
    ])
    def test_load_rejects_invalid_trace_entries(self, tmp_path, key, index,
                                                value):
        table = random_table(n=20, p=2, seed=67)
        model = fit_cwr(table, ["x1", "x2"], r_grid=[0.0, 0.5, 1.0],
                        bandwidth_grid_size=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        trace = doc["traces"]["rate"]
        if key is None:
            value(trace)
        elif index is None:
            trace[key] = value
        else:
            trace[key][index] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_model(path)

    def test_validation(self):
        table = random_table(n=20, p=1, seed=63)
        with pytest.raises(ParameterError):
            fit_cwr(table, r="detect")
        with pytest.raises(ParameterError):
            fit_cwr(table, r=0.5, bandwidth="auto")
        with pytest.raises(ParameterError):
            fit_cwr(table, k=0)
        with pytest.raises(ParameterError):
            fit_cwr(table, mode="nearest")

    def test_bw_grid_applies_to_every_rate(self):
        # Each r is scored on the given grid, exactly as a fixed-r
        # bandwidth search over that grid scores it.
        table = random_table(n=25, p=1, seed=65)
        grid = [0.3, 0.9, 2.7]
        trace = fit_cwr(table, ["x1"], r_grid=[0.0, 0.5, 1.0],
                        bw_grid=grid).traces["rate"]
        for r, h, score in zip(trace.candidates, trace.bandwidths,
                               trace.scores):
            fixed = fit_cwr(table, ["x1"], r=r, bw_grid=grid)
            assert h in grid
            assert h == fixed.fit.bandwidth
            assert score == fixed.traces["bandwidth"].selected_score

    @pytest.mark.parametrize("r", ["search", 0.5])
    def test_bw_grid_with_fixed_bandwidth_rejected(self, r):
        table = random_table(n=20, p=1, seed=66)
        with pytest.raises(ParameterError):
            fit_cwr(table, ["x1"], r=r, r_grid=[0.0, 1.0], bandwidth=0.7,
                    bw_grid=[0.5, 1.0])

    def test_scored_model_is_the_fitted_model(self):
        # The final fit solves exactly the systems that scored the
        # winning (r, h), so its training RMSE is the selected score.
        for seed in range(5):
            table = random_table(n=30, p=2, seed=seed)
            model = fit_cwr(table, attribute_columns=["x1", "x2"],
                            scoring="insample", r_grid=[0.0, 0.5, 1.0],
                            bandwidth_grid_size=4)
            X = design_matrix(table.covariates)
            fitted = np.einsum("ij,ij->i", X, model.fit.coefficients)
            assert (model.traces["rate"].selected_score
                    == rmse(table.y, fitted))

    @pytest.mark.parametrize("kwargs", [
        {"r_grid": [0.0, 0.5, 1.0], "bandwidth_grid_size": 4},
        {"r": 0.5, "bandwidth": "cv", "bandwidth_grid_size": 4},
    ])
    def test_training_distances_built_once(self, monkeypatch, kwargs):
        calls = {"geographic_distances": 0, "standardize": 0}

        def counted(name):
            original = getattr(cwreg.local, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return original(*args, **kw)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cwreg.local, name, counted(name))
        table = random_table(n=25, p=2, seed=64)
        fit_cwr(table, attribute_columns=["x1", "x2"], **kwargs)
        assert calls == {"geographic_distances": 1, "standardize": 1}

    def test_selected_pure_geographic_drops_attribute_state(self):
        # A search that lands on r = 1 saves no standardization.
        table = tie_table()
        model = fit_cwr(table, attribute_columns=["x1", "x2"],
                        r_grid=[0.0, 1.0], bandwidth_grid_size=5)
        assert model.fit.spec.r == 1.0
        assert model.fit.transform is None
        assert model.fit.attr_scale == 1.0


def integer_coord_table(n, seed):
    """random_table with integer coordinates in [0, 100)."""
    table = random_table(n=n, p=2, seed=seed)
    table.coords = np.random.default_rng(seed).integers(0, 100, (n, 2)) * 1.0
    return table


INVARIANT_SEARCH = dict(attribute_columns=["x1", "x2"],
                        r_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
                        bandwidth_grid_size=6)


class TestInvariances:
    """Properties of the fitted model that hold bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           columns=st.one_of(st.none(), st.lists(
               st.sampled_from(["x1", "x2", "x3"]), unique=True)))
    def test_pure_geographic_fit_ignores_attribute_columns(self, seed,
                                                           columns):
        # At r = 1 the blend is the geographic distance alone, so the
        # bandwidth search and the fit never read attribute_columns.
        table = random_table(n=20, p=3, seed=seed)
        base = fit_cwr(table, [], r=1.0, bandwidth_grid_size=6)
        other = fit_cwr(table, columns, r=1.0, bandwidth_grid_size=6)
        assert other.fit.bandwidth == base.fit.bandwidth
        assert (other.fit.coefficients.tobytes()
                == base.fit.coefficients.tobytes())
        assert (other.traces["bandwidth"].scores
                == base.traces["bandwidth"].scores)
        assert other.fit.transform is None

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(12, 29),
           move=st.sampled_from(["rotate", "reflect", "translate", "scale"]),
           shift=st.tuples(st.integers(-10 ** 6, 10 ** 6),
                           st.integers(-10 ** 6, 10 ** 6)),
           k=st.integers(-20, 20))
    def test_search_ignores_rigid_moves_and_scale(self, seed, n, move,
                                                  shift, k):
        # With integer coordinates every geographic distance is the same
        # float after a 90-degree rotation, a reflection or an integer
        # translation, and a power-of-two scale cancels in max-scale.
        base = integer_coord_table(n, seed)
        x, y = base.coords.T
        coords = {"rotate": np.column_stack([-y, x]),
                  "reflect": np.column_stack([-x, y]),
                  "translate": base.coords + shift,
                  "scale": base.coords * 2.0 ** k}[move]
        moved = dataclasses.replace(base, coords=coords)
        assert searches_match(fit_cwr(moved, **INVARIANT_SEARCH),
                              fit_cwr(base, **INVARIANT_SEARCH))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(12, 29),
           k=st.integers(-20, 20))
    def test_response_scale_scales_scores_and_coefficients(self, seed, n, k):
        # Every score and coefficient is linear in y, and a power-of-two
        # factor rounds nowhere, so r and h stay and the rest scale.
        table = integer_coord_table(n, seed)
        base = fit_cwr(table, **INVARIANT_SEARCH)
        model = fit_cwr(dataclasses.replace(table, y=table.y * 2.0 ** k),
                        **INVARIANT_SEARCH)
        assert model.fit.spec.r == base.fit.spec.r
        assert model.fit.bandwidth == base.fit.bandwidth
        scores = base.traces["rate"].scores
        assert model.traces["rate"].scores == [s * 2.0 ** k for s in scores]
        assert (model.fit.coefficients.tobytes()
                == (base.fit.coefficients * 2.0 ** k).tobytes())

    @pytest.mark.parametrize("mode", cwreg.local.PREDICT_MODES)
    @pytest.mark.parametrize("r", [0.0, 0.4, 1.0, "search"])
    def test_save_load_keeps_predictions(self, tmp_path, mode, r):
        # The model file holds every number prediction reads, exactly:
        # a loaded model predicts the same bits in both modes.
        table = random_table(n=30, p=2, seed=67)
        model = fit_cwr(table, ["x1", "x2"], r=r, mode=mode, k=4,
                        r_grid=[0.0, 0.5, 1.0], bandwidth_grid_size=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.mode == mode
        rng = np.random.default_rng(68)
        coords = np.vstack([table.coords,
                            table.coords[:10] + rng.normal(size=(10, 2))])
        covs = np.vstack([table.covariates,
                          table.covariates[:10] + rng.normal(size=(10, 2))])
        assert (clone.predict(coords, covs).tobytes()
                == model.predict(coords, covs).tobytes())


def share_with_helper(score):
    """A stand-in for cwreg.local._score_chunk whose first call on each
    thread waits, at a two-party barrier, for the other thread's first,
    so both search threads score some chunks; the barrier breaks after
    60 s. `score(*args, **kwargs)` does the scoring."""
    both_started = threading.Barrier(2, timeout=60)
    started = set()

    def scoring(*args, **kwargs):
        if threading.current_thread() not in started:
            started.add(threading.current_thread())
            both_started.wait()
        return score(*args, **kwargs)

    return scoring


def rates_per_chunk(monkeypatch, size):
    """Every chunk of the search holds `size` r candidates (the last
    what is left), whatever n, p and the grid size."""
    monkeypatch.setattr(cwreg.local, "_rates_per_chunk", lambda n, p, g: size)


def raise_in_reverse(rates):
    """A `score` for share_with_helper, over chunks of one r, under
    which the candidates at `rates` raise, the larger r first, and the
    others are scored. Returns it with the exception each of `rates`
    raises."""
    real = cwreg.local._score_chunk
    errors = {r: RuntimeError(f"scoring failed at r = {r}") for r in rates}
    raised = {r: threading.Event() for r in rates}

    def score(geo, attr, specs, **kwargs):
        (spec,) = specs
        if spec.r not in errors:
            return real(geo, attr, specs, **kwargs)
        for r in rates:
            if r > spec.r:
                assert raised[r].wait(60), f"r = {r} did not raise"
        raised[spec.r].set()
        raise errors[spec.r]

    return score, errors


def searches_match(a, b):
    """Two searched models agree bit for bit: r/h, trace, coefficients."""
    ta, tb = a.traces["rate"], b.traces["rate"]
    return (a.fit.spec.r == b.fit.spec.r
            and a.fit.bandwidth == b.fit.bandwidth
            and ta.scores == tb.scores and ta.bandwidths == tb.bandwidths
            and ta.to_dict() == tb.to_dict()
            and a.fit.coefficients.tobytes() == b.fit.coefficients.tobytes())


def refuse(*args):
    """A stand-in for what a search on the calling thread never calls."""
    raise AssertionError("the search started a thread")


RATES = [i / 10 for i in range(11)]


def chunked_search(monkeypatch, size, threads, table, *args, **kwargs):
    """fit_cwr with `size` r candidates a chunk, on the calling thread
    (threads=1) or, where the two_workers fixture allows, on the pool."""
    with monkeypatch.context() as m:
        rates_per_chunk(m, size)
        if threads == 1:
            m.setattr(cwreg.local, "_blas_threads", lambda: None)
        return fit_cwr(table, *args, **kwargs)


class TestTwoWorkers:
    """The r candidates are scored in chunks by a pool of two threads
    while OpenBLAS is held at one thread; every number is the one the
    calling thread alone computes, one r at a time."""

    @pytest.mark.parametrize("table, kwargs", [
        (random_table(n=60, p=2, seed=70), dict(bandwidth_grid_size=6)),
        (random_table(n=60, p=2, seed=70),
         dict(bandwidth_grid_size=6, scoring="insample")),
        (tie_table(), dict(r_grid=[0.0, 1.0], bandwidth_grid_size=5)),
        (random_table(n=40, p=1, seed=71), dict(bw_grid=[0.05, 0.2, 0.8])),
        # 1e-300 leaves every location without a leave-one-out weight,
        # so that bandwidth scores inf at every r.
        (random_table(n=40, p=1, seed=71),
         dict(bw_grid=[0.05, 1e-300, 0.2, 0.8])),
    ], ids=["loo", "insample", "tie", "bw_grid", "underflow"])
    def test_equal_to_one_thread(self, two_workers, monkeypatch, table,
                                 kwargs):
        # Chunks of 1 and 2 r and one chunk of all, on one thread and on
        # two, against one r a chunk on one thread.
        kwargs = {"r_grid": RATES, **kwargs}
        columns = table.covariate_names
        alone = chunked_search(monkeypatch, 1, 1, table, columns, **kwargs)
        for size in (1, 2, len(RATES)):
            for threads in (1, 2):
                assert searches_match(chunked_search(
                    monkeypatch, size, threads, table, columns, **kwargs),
                    alone), (size, threads)
        # Unpatched, these small searches take one chunk.
        assert searches_match(fit_cwr(table, columns, **kwargs), alone)
        if table.n == 5:
            assert alone.fit.spec.r == 1.0  # ties go to the larger r

    @pytest.mark.parametrize("coords, normalization, grid_at_one", [
        # One site: no geographic distance, so at r = 1 the grid is [1.0].
        (np.zeros((24, 2)), "max-scale", [1.0]),
        # Two sites: every positive distance is the largest, 5 sqrt 2,
        # so at r = 1 the grid is that distance alone.
        (np.repeat([[0.0, 0.0], [5.0, 5.0]], 12, axis=0), "none",
         [5.0 * np.sqrt(2.0)]),
    ], ids=["one-site", "two-sites"])
    def test_degenerate_grid_shares_a_chunk(self, two_workers, monkeypatch,
                                            coords, normalization,
                                            grid_at_one):
        # r = 1 takes a one-bandwidth grid and every other r 20, also
        # where they share a chunk's stack.
        rng = np.random.default_rng(78)
        table = ObservationTable(
            ids=[f"d{i}" for i in range(24)], coords=coords,
            y=rng.normal(size=24), covariates=rng.normal(size=(24, 2)),
            covariate_names=["x1", "x2"])
        kwargs = dict(r_grid=RATES, normalization=normalization)
        alone = chunked_search(monkeypatch, 1, 1, table, ["x1", "x2"],
                               **kwargs)
        for r, grid in ((1.0, grid_at_one), (0.9, None)):
            trace = fit_cwr(table, ["x1", "x2"], r=r,
                            normalization=normalization).traces["bandwidth"]
            assert len(trace.candidates) == len(grid or [0] * 20)
            assert grid is None or trace.candidates == grid
        assert alone.traces["rate"].bandwidths[-1] == grid_at_one[0]
        for size in (2, 3, len(RATES)):
            for threads in (1, 2):
                assert searches_match(chunked_search(
                    monkeypatch, size, threads, table, ["x1", "x2"],
                    **kwargs), alone), (size, threads)

    def test_search_failure_equal_to_one_thread(self, two_workers,
                                                monkeypatch):
        table = random_table(n=20, p=1, seed=46)
        errors = set()
        for size in (1, 2, len(RATES)):
            for threads in (1, 2):
                with pytest.raises(SearchFailureError) as info:
                    chunked_search(monkeypatch, size, threads, table, ["x1"],
                                   r_grid=RATES, bw_grid=[1e-300])
                errors.add(str(info.value))
        assert errors == {"no blend-ratio candidate produced a valid fit"}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_caller_error_state_reaches_the_pool(self, two_workers,
                                                 monkeypatch, threads):
        # A response of order 1e155 overflows the squared residuals.
        # Under the caller's np.errstate(over="raise") that raises on
        # the calling thread and on the pool's, and warns nowhere.
        table, _ = generate_synthetic("attr", n=160, sigma=2.0, seed=1)
        table = dataclasses.replace(table, y=table.y * 1e154)
        if threads == 1:
            monkeypatch.setattr(cwreg.local, "_blas_threads", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="^overflow"):
                    fit_cwr(table, ["x1"])
        assert [str(w.message) for w in caught] == []

    def test_two_threads_share_the_candidates(self, two_workers,
                                              monkeypatch):
        workers, blas_threads, chunks = set(), [], []
        real = cwreg.local._score_chunk

        def score(geo, attr, specs, **kwargs):
            workers.add(threading.current_thread())
            blas_threads.append(two_workers())
            chunks.append([spec.r for spec in specs])
            return real(geo, attr, specs, **kwargs)

        table = random_table(n=40, p=2, seed=72)
        alone = fit_cwr(table, ["x1", "x2"], r=1.0, bandwidth_grid_size=4)
        rates_per_chunk(monkeypatch, 2)
        monkeypatch.setattr(cwreg.local, "_score_chunk",
                            share_with_helper(score))
        model = fit_cwr(table, ["x1", "x2"], r_grid=RATES,
                        bandwidth_grid_size=4)
        assert len(workers) == 2
        assert threading.current_thread() not in workers
        assert set(blas_threads) == {1}
        assert two_workers() == 2
        assert sorted(chunks) == [RATES[i:i + 2] for i in range(0, 11, 2)]
        at_one = model.traces["rate"].candidates.index(1.0)
        assert (model.traces["rate"].scores[at_one]
                == alone.traces["bandwidth"].selected_score)

    @pytest.mark.parametrize("raiser", ["helper", "both"])
    def test_exception_comes_out_unchanged(self, two_workers, monkeypatch,
                                           raiser):
        # The two threads' first candidates are r = 0 and r = 0.1. Under
        # "both", r = 0.1 raises before r = 0 does; a search on one
        # thread raises r = 0's exception, and so must the pool.
        score, errors = raise_in_reverse(
            [0.0] if raiser == "helper" else [0.0, 0.1])
        table = random_table(n=30, p=1, seed=73)
        with monkeypatch.context() as m:
            rates_per_chunk(m, 1)
            m.setattr(cwreg.local, "_score_chunk", share_with_helper(score))
            with pytest.raises(RuntimeError) as info:
                fit_cwr(table, ["x1"], r_grid=RATES, bandwidth_grid_size=4)
        assert info.value is errors[0.0]
        assert two_workers() == 2
        assert cwreg.local._hold["depth"] == 0
        # The next search has a pool of its own.
        fit_cwr(table, ["x1"], r_grid=RATES, bandwidth_grid_size=4)

    def test_two_user_threads_search_at_once(self, two_workers,
                                             monkeypatch):
        table = random_table(n=60, p=2, seed=74)
        rates_per_chunk(monkeypatch, 2)

        def search():
            return fit_cwr(table, ["x1", "x2"], r_grid=RATES,
                           bandwidth_grid_size=6)

        expected = search()
        models = [None, None]

        def run(i):
            models[i] = search()

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        # Three workers on two cores, switching as often as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(searches_match(model, expected) for model in models)
        assert two_workers() == 2
        assert cwreg.local._hold["depth"] == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_helper(self, two_workers,
                                              monkeypatch):
        table = random_table(n=40, p=2, seed=75)
        rates_per_chunk(monkeypatch, 2)

        def search():
            return fit_cwr(table, ["x1", "x2"], r_grid=RATES,
                           bandwidth_grid_size=4)

        # The parent's search, pool and hold have ended.
        expected = search()

        def child():
            sys.exit(0 if searches_match(search(), expected) else 3)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's search did not finish")
        assert process.exitcode == 0

    @pytest.mark.parametrize("kwargs", [
        dict(r=1.0), dict(r=0.5, bandwidth=0.4),
        dict(r=0.5, bw_grid=[0.2, 0.4]),
    ])
    def test_one_candidate_starts_no_thread(self, monkeypatch, kwargs):
        # Neither the OpenBLAS lookup nor a thread pool is reached.
        monkeypatch.setattr(cwreg.local, "_blas_threads", refuse)
        monkeypatch.setattr(cwreg.local, "ThreadPoolExecutor", refuse)
        fit_cwr(random_table(n=20, p=2, seed=76), ["x1", "x2"], **kwargs)

    def test_one_cpu_searches_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(cwreg.local, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(cwreg.local, "ThreadPoolExecutor", refuse)
        with cwreg.local._search_helper(2) as map_rates:
            assert map_rates is map
        fit_cwr(random_table(n=20, p=2, seed=76), ["x1", "x2"],
                r_grid=RATES, bandwidth_grid_size=4)

    @pytest.mark.parametrize("raiser", [None, "helper", "both"])
    def test_no_helper_outlives_the_search(self, two_workers, monkeypatch,
                                           raiser):
        score, _ = raise_in_reverse({None: [], "helper": [0.0],
                                     "both": [0.0, 0.1]}[raiser])
        rates_per_chunk(monkeypatch, 1)
        monkeypatch.setattr(cwreg.local, "_score_chunk",
                            share_with_helper(score))
        try:
            fit_cwr(random_table(n=30, p=1, seed=73), ["x1"], r_grid=RATES,
                    bandwidth_grid_size=4)
        except RuntimeError:
            assert raiser is not None
        else:
            assert raiser is None
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("cwreg-search")]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_child_forked_during_a_search_is_not_held(self, two_workers,
                                                      monkeypatch):
        table = random_table(n=40, p=2, seed=75)
        rates_per_chunk(monkeypatch, 2)

        def search():
            return fit_cwr(table, ["x1", "x2"], r_grid=RATES,
                           bandwidth_grid_size=4)

        expected = search()

        def child():
            # The fork hook ends the parent's hold: OpenBLAS is back at
            # the two threads the hold found, and the child can hold it.
            if cwreg.local._hold["depth"] != 0:
                sys.exit(3)
            if two_workers() != 2:
                sys.exit(4)
            sys.exit(0 if searches_match(search(), expected) else 5)

        with cwreg.local._search_helper(2) as map_rates:
            assert map_rates is not map and two_workers() == 1
            process = multiprocessing.get_context("fork").Process(
                target=child)
            process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's search did not finish")
        assert process.exitcode == 0
        assert two_workers() == 2
        assert cwreg.local._hold["depth"] == 0


class TestSystemCounts:
    """Traces count the ridged and failed local systems per candidate."""

    def test_rate_counts_are_the_chosen_bandwidths(self):
        table = random_table(n=40, p=2, seed=77)
        grid = [1e-300, 0.05, 0.2, 0.8]
        model = fit_cwr(table, ["x1", "x2"], r_grid=[0.0, 0.5, 1.0],
                        bw_grid=grid)
        trace = model.traces["rate"]
        for r, h, ridged, failed in zip(trace.candidates, trace.bandwidths,
                                        trace.n_regularized, trace.n_failed):
            fixed = fit_cwr(table, ["x1", "x2"], r=r,
                            bw_grid=grid).traces["bandwidth"]
            assert fixed.n_failed[0] == table.n
            i = grid.index(h)
            assert (ridged, failed) == (fixed.n_regularized[i],
                                        fixed.n_failed[i])
            # A chosen bandwidth fitted every location.
            assert failed == 0

    def test_collinear_systems_count_as_ridged(self):
        model = fit_cwr(collinear_table(), r=1.0, bw_grid=[1.0, 2.0])
        trace = model.traces["bandwidth"]
        assert trace.n_regularized == [12, 12]
        assert trace.n_failed == [0, 0]

    def test_model_file_without_counts_loads(self, tmp_path):
        model = fit_cwr(grid_table(n=30), ["x1"], r_grid=[0.0, 1.0],
                        bw_grid=[1e-6])
        path = tmp_path / "model.json"
        save_model(model, path)
        # A model file written before the counts existed loads without.
        doc = json.loads(path.read_text())
        for key in ("n_regularized", "n_failed"):
            del doc["traces"]["rate"][key]
        path.write_text(json.dumps(doc))
        old = load_model(path).traces["rate"]
        assert old.n_regularized is None and old.n_failed is None
        assert old.scores == model.traces["rate"].scores
