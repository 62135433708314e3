"""Distance matrices, blending, and the Gaussian kernel."""

import dataclasses
import warnings

import numpy as np
import pytest

import cwreg.local
from cwreg.distances import (
    DistanceSpec,
    attribute_distances,
    _blend_rows,
    _gaussian,
    gaussian_weights,
    geographic_distances,
    training_scale,
)
from cwreg.errors import DimensionError, ParameterError
from cwreg.local import fit_cwr

from conftest import brute_force_distance_matrix, random_table


class TestGeographicDistances:
    def test_matches_coordinate_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.uniform(-50, 50, size=(rng.integers(1, 12), 2))
            B = rng.uniform(-50, 50, size=(rng.integers(1, 12), 2))
            got = geographic_distances(A, B)
            np.testing.assert_allclose(got, brute_force_distance_matrix(A, B),
                                       rtol=0, atol=1e-12)

    def test_345_triangle(self):
        D = geographic_distances([[0.0, 0.0]], [[3.0, 4.0]])
        assert D.shape == (1, 1)
        assert D[0, 0] == pytest.approx(5.0, abs=1e-15)

    def test_self_distance_zero_diagonal(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(0, 100, size=(25, 2))
        D = geographic_distances(A, A)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-9)
        np.testing.assert_allclose(D, D.T, atol=1e-9)

    def test_rejects_wrong_coordinate_width(self):
        with pytest.raises(DimensionError):
            geographic_distances([[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])


class TestAttributeDistances:
    def test_matches_loop_oracle_any_width(self):
        rng = np.random.default_rng(4)
        for p in (1, 2, 5):
            A = rng.normal(size=(8, p))
            B = rng.normal(size=(6, p))
            got = attribute_distances(A, B)
            np.testing.assert_allclose(got, brute_force_distance_matrix(A, B),
                                       rtol=0, atol=1e-12)

    def test_zero_columns_gives_zero_matrix(self):
        # No attributes selected: every pair is at distance 0.
        D = attribute_distances(np.empty((4, 0)), np.empty((3, 0)))
        assert D.shape == (4, 3)
        assert np.all(D == 0.0)

    def test_rejects_mismatched_widths(self):
        with pytest.raises(DimensionError):
            attribute_distances(np.zeros((3, 2)), np.zeros((3, 3)))


class TestDistanceSpec:
    def test_rejects_r_outside_unit_interval(self):
        for bad in (-0.01, 1.01, np.nan):
            with pytest.raises(ParameterError):
                DistanceSpec(r=bad, attribute_columns=("x1",))

    def test_requires_attribute_columns_when_blending(self):
        with pytest.raises(ParameterError):
            DistanceSpec(r=0.5, attribute_columns=())

    def test_pure_geographic_needs_no_columns(self):
        spec = DistanceSpec(r=1.0)
        assert spec.attribute_columns == ()

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ParameterError):
            DistanceSpec(r=1.0, normalization="minmax")


class TestBlendDistances:
    """_blend_rows, the one blend rule, over whole matrices."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.geo = np.abs(rng.normal(size=(10, 10)))
        self.attr = np.abs(rng.normal(size=(10, 10)))

    def blend(self, r):
        return _blend_rows(self.geo, self.attr, r, np.empty((10, 10)))

    def test_convex_combination(self):
        # d = r * d_geo + (1 - r) * d_attr, entrywise.
        for r in (0.0, 0.25, 0.5, 0.8, 1.0):
            np.testing.assert_allclose(self.blend(r),
                                       r * self.geo + (1 - r) * self.attr,
                                       atol=1e-15)

    def test_endpoints_are_exact_copies(self):
        # At r = 1 and r = 0 the blend is that side itself.
        assert self.blend(1.0) is self.geo
        assert self.blend(0.0) is self.attr

    def test_monotone_between_endpoints(self):
        # Each blended entry lies between the two source entries.
        got = self.blend(0.37)
        lo = np.minimum(self.geo, self.attr)
        hi = np.maximum(self.geo, self.attr)
        assert np.all(got >= lo - 1e-12)
        assert np.all(got <= hi + 1e-12)

    def test_absent_attribute_side_returns_geographic_matrix(self):
        # Without attribute distances the training rows are views of the
        # geographic matrix, not copies, whatever the buffer.
        rows = cwreg.local._training_rows(self.geo, None, 1.0)
        for a, b in ((0, 10), (3, 5)):
            got = rows.read(a, b, np.empty((2 * (b - a), 10)))
            assert got.base is self.geo
            np.testing.assert_array_equal(got, self.geo[a:b])


class TestGaussianWeights:
    def test_reference_values(self):
        # exp(-(d/h)^2) at d=h and d=2h; no factor 2 in the exponent.
        w = gaussian_weights(np.array([[1.0, 2.0]]), 1.0)
        assert w[0, 0] == pytest.approx(0.36787944117144233, abs=1e-16)
        assert w[0, 1] == pytest.approx(0.018315638888734179, abs=1e-16)

    def test_zero_distance_weight_one(self):
        assert gaussian_weights(np.zeros((3, 3)), 5.0).min() == 1.0

    def test_strictly_decreasing_in_distance(self):
        d = np.linspace(0, 10, 200)
        w = gaussian_weights(d, 2.5)
        assert np.all(np.diff(w) < 0)

    def test_scale_invariance(self):
        # Scaling d and h together leaves the weights unchanged.
        rng = np.random.default_rng(12)
        d = np.abs(rng.normal(size=50))
        for c in (0.1, 3.0, 1e4):
            np.testing.assert_allclose(gaussian_weights(d, 1.7),
                                       gaussian_weights(c * d, c * 1.7),
                                       rtol=1e-12)

    def test_tiny_bandwidth_is_silent_and_exact(self):
        # d / h overflows for every positive distance; the weights are
        # then exactly 0, and no RuntimeWarning escapes.
        d = np.array([[0.0, 1e-10, 0.5], [3.0, 0.0, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = gaussian_weights(d, 1e-300)
        np.testing.assert_array_equal(w, (d == 0).astype(float))

    def test_bit_identical_to_reference_expression(self):
        # exp(s * -d^2) with s = 1 / h^2 computed as (1 / h)^2, within a
        # few ulps of the exponent of exp(-(d / h)^2).
        rng = np.random.default_rng(13)
        for h in (1e-3, 0.37, 1.0, 250.0):
            d = np.abs(rng.normal(size=(17, 23))) * rng.choice([1e-2, 1, 1e3])
            w = gaussian_weights(d, h)
            s = np.square(1.0 / np.float64(h))
            assert w.tobytes() == np.exp(np.square(d) * -s).tobytes()
            x = (d / h) ** 2
            eps = np.finfo(float).eps
            np.testing.assert_allclose(w, np.exp(-x), rtol=0,
                                       atol=4 * eps * (1 + x).max())

    def test_kernel_edge_rule(self):
        # The one kernel helper: weight 1 at d = 0 and 0 at every d > 0
        # for h = 1e-300, whose 1 / h^2 overflows and is clamped; weight
        # 1 wherever s d^2 underflows. All of it silently.
        d = np.array([0.0, 1e-150, 1e-10, 0.5, 3.0, 1e300])
        with np.errstate(over="ignore"):
            squared = np.square(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = _gaussian(squared, np.float64(1e-300))
            huge = _gaussian(squared[:-1], np.float64(1e300))
        np.testing.assert_array_equal(tiny, (d == 0).astype(float))
        np.testing.assert_array_equal(huge, np.ones(5))

    def test_input_left_unchanged(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        gaussian_weights(d, 1.5)
        np.testing.assert_array_equal(d, [[0.0, 1.0], [2.0, 0.0]])

    def test_bandwidth_must_be_positive(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                gaussian_weights(np.ones((2, 2)), bad)

    def test_stacked_bandwidths_equal_scalar_calls(self):
        rng = np.random.default_rng(14)
        d = np.abs(rng.normal(size=(9, 9)))
        h = np.array([1e-300, 1e-3, 0.37, 1.0, 250.0])
        w = gaussian_weights(d, h[:, None, None])
        assert w.shape == (5, 9, 9)
        for i, hi in enumerate(h):
            assert w[i].tobytes() == gaussian_weights(d, hi).tobytes()

    def test_stacked_bandwidths_must_all_be_positive(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            h = np.array([0.5, bad, 2.0])[:, None, None]
            with pytest.raises(ParameterError):
                gaussian_weights(np.ones((2, 2)), h)

    def test_negative_distances_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_weights(np.array([-0.5]), 1.0)

    def test_nan_distances_rejected(self):
        # One scan refuses every distance that is not >= 0, NaN too.
        for d in ([np.nan, 1.0], np.array([[0.0, 1.0], [1.0, np.nan]])):
            with pytest.raises(ParameterError):
                gaussian_weights(d, 1.0)


class TestTrainingScale:
    def test_max_entry(self):
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert training_scale(D) == 2.0

    def test_degenerate_all_zero_scale_is_one(self):
        # Avoids a 0/0 when every pairwise distance is zero.
        assert training_scale(np.zeros((4, 4))) == 1.0

    def test_overflowing_coordinates_raise(self):
        # Distances from a coordinate of 1e308 overflow to inf. Before,
        # the scaled matrix filled with NaN and the fit ended in a
        # SingularFitError.
        table = random_table(n=12, p=2, seed=1)
        coords = table.coords.copy()
        coords[3, 0] = 1e308
        table = dataclasses.replace(table, coords=coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="coordinates too large"):
                fit_cwr(table, ["x1", "x2"], r=0.5, bandwidth=0.5)

    def test_scaled_matrix_has_unit_max(self):
        rng = np.random.default_rng(21)
        D = np.abs(rng.normal(size=(15, 15))) * 37.0
        assert (D / training_scale(D)).max() == pytest.approx(1.0)
