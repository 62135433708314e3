"""Tables, CSV ingestion, splitting, standardization, generators."""

import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwreg.data import (
    ATTR_DEFAULTS,
    DEFAULT_SCHEMA,
    ObservationTable,
    SplitSpec,
    StandardizationTransform,
    generate_hedonic,
    generate_synthetic,
    hedonic_records,
    load_csv,
    load_query_csv,
    load_schema,
    split,
    standardize,
    table_schema,
    write_csv,
    write_records,
)
from cwreg.distances import attribute_distances, geographic_distances
from cwreg.ensemble import fit_lsboost
from cwreg.errors import (
    CwregError,
    DimensionError,
    IngestionError,
    ParameterError,
    SchemaError,
)
from cwreg.evaluate import ComparisonConfig, fit_model
from cwreg.local import fit_cwr
from cwreg.wls import design_matrix, solve_wls

from conftest import random_table


SMALL_SCHEMA = {
    "columns": [
        {"name": "id", "role": "id"},
        {"name": "u", "role": "coordinate"},
        {"name": "v", "role": "coordinate"},
        {"name": "price", "role": "response"},
        {"name": "x1", "role": "covariate"},
    ]
}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestObservationTable:
    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            ObservationTable(ids=["a", "b"], coords=[[0.0, 0.0]],
                             y=[1.0, 2.0], covariates=[[1.0], [2.0]],
                             covariate_names=["x1"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParameterError):
            ObservationTable(ids=["a", "a"], coords=[[0.0, 0.0], [1.0, 1.0]],
                             y=[1.0, 2.0], covariates=[[1.0], [2.0]],
                             covariate_names=["x1"])

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            ObservationTable(ids=["a", "b"], coords=[[0.0, 0.0], [1.0, 1.0]],
                             y=[1.0, np.nan], covariates=[[1.0], [2.0]],
                             covariate_names=["x1"])

    @pytest.mark.parametrize("key, value", [
        ("coords", [["0.0", "0.0"], ["1.0", "1.0"]]),
        ("y", [1.0, "two"]),
        ("covariates", [[1.0], ["x"]]),
        ("coords", [[0.0, 0.0], [1.0]]),
        ("covariates", [[1.0], [2.0, 3.0]]),
        ("y", [1.0, None]),
    ], ids=["string-coords", "string-y", "string-covariate", "ragged-coords",
            "ragged-covariates", "none-y"])
    def test_unreadable_arrays_rejected(self, key, value):
        # Strings and ragged rows are not numbers: ParameterError, which
        # the CLI and run_comparison catch, never a bare ValueError.
        good = {"ids": ["a", "b"], "coords": [[0.0, 0.0], [1.0, 1.0]],
                "y": [1.0, 2.0], "covariates": [[1.0], [2.0]],
                "covariate_names": ["x1"]}
        with pytest.raises(ParameterError):
            ObservationTable(**{**good, key: value})

    def test_covariate_matrix_reorders_columns(self, small_table):
        M = small_table.covariate_matrix(["x2", "x1"])
        np.testing.assert_array_equal(M[:, 0], small_table.covariates[:, 1])
        np.testing.assert_array_equal(M[:, 1], small_table.covariates[:, 0])

    def test_covariate_matrix_unknown_column(self, small_table):
        with pytest.raises(ParameterError):
            small_table.covariate_matrix(["nope"])

    def test_subset_keeps_alignment(self, small_table):
        sub = small_table.subset([3, 7, 8])
        assert sub.ids == [small_table.ids[i] for i in (3, 7, 8)]
        np.testing.assert_array_equal(sub.y, small_table.y[[3, 7, 8]])
        np.testing.assert_array_equal(sub.coords,
                                      small_table.coords[[3, 7, 8]])

    def test_dict_round_trip(self, small_table):
        clone = ObservationTable.from_dict(small_table.to_dict())
        assert small_table.to_dict() == clone.to_dict()

    def test_default_attribute_columns_skip_dummies(self):
        t = ObservationTable(
            ids=["a", "b"], coords=[[0.0, 0.0], [1.0, 1.0]], y=[1.0, 2.0],
            covariates=[[1.0, 0.0], [2.0, 1.0]],
            covariate_names=["x1", "land=z"], dummy_names=["land=z"])
        assert t.default_attribute_columns() == ["x1"]


class TestLoadCsv:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_lines(path, [
            "id,u,v,price,x1",
            "a,0.0,0.0,10.0,1.5",
            "b,1.0,0.0,11.0,2.5",
            "c,0.0,1.0,12.0,3.5",
        ])
        table, report = load_csv(path, SMALL_SCHEMA)
        assert table.n == 3
        assert report.total_rows == 3
        assert report.accepted_rows == 3
        assert report.rejections == []
        np.testing.assert_array_equal(table.y, [10.0, 11.0, 12.0])

    def test_blank_response_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "blank.csv"
        write_lines(path, [
            "id,u,v,price,x1",
            "a,0.0,0.0,10.0,1.5",
            "b,1.0,0.0,,2.5",
            "c,0.0,1.0,12.0,3.5",
            "d,1.0,1.0,13.0,4.5",
        ])
        table, report = load_csv(path, SMALL_SCHEMA)
        assert table.n == 3
        assert table.ids == ["a", "c", "d"]
        assert len(report.rejections) == 1
        line, reason = report.rejections[0]
        assert line == 3  # 1-based file line, header is line 1
        assert "price" in reason

    def test_non_numeric_and_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, [
            "id,u,v,price,x1",
            "a,0.0,0.0,10.0,oops",
            "b,1.0,0.0,11.0,inf",
            "c,0.0,1.0,12.0,3.5",
            "d,1.0,1.0,13.0,4.5",
        ])
        table, report = load_csv(path, SMALL_SCHEMA)
        assert table.ids == ["c", "d"]
        reasons = [r for _, r in report.rejections]
        assert any("non-numeric" in r for r in reasons)
        assert any("non-finite" in r for r in reasons)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, [
            "id,u,v,price,x1",
            "a,0.0,0.0,10.0,1.0",
            "a,1.0,0.0,11.0,2.0",
            "b,0.0,1.0,12.0,3.0",
        ])
        table, report = load_csv(path, SMALL_SCHEMA)
        assert table.ids == ["a", "b"]
        assert report.rejections[0][0] == 3
        assert "duplicate" in report.rejections[0][1]

    def test_missing_header_column_is_schema_error(self, tmp_path):
        path = tmp_path / "noprice.csv"
        write_lines(path, ["id,u,v,x1", "a,0.0,0.0,1.0"])
        with pytest.raises(SchemaError):
            load_csv(path, SMALL_SCHEMA)

    def test_majority_invalid_file_refused(self, tmp_path):
        path = tmp_path / "mostly_bad.csv"
        write_lines(path, [
            "id,u,v,price,x1",
            "a,0.0,0.0,10.0,1.0",
            "b,1.0,0.0,,1.0",
            "c,0.0,1.0,,1.0",
        ])
        with pytest.raises(IngestionError):
            load_csv(path, SMALL_SCHEMA)

    def test_exactly_half_rejected_is_accepted(self, tmp_path):
        # The refusal threshold is strictly more than half.
        path = tmp_path / "half.csv"
        write_lines(path, [
            "id,u,v,price,x1",
            "a,0.0,0.0,10.0,1.0",
            "b,1.0,0.0,,1.0",
            "c,0.0,1.0,12.0,1.0",
            "d,1.0,1.0,,1.0",
        ])
        table, report = load_csv(path, SMALL_SCHEMA)
        assert table.n == 2
        assert report.total_rows == 4

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestionError):
            load_csv(path, SMALL_SCHEMA)

    def test_header_only_refused(self, tmp_path):
        path = tmp_path / "header.csv"
        write_lines(path, ["id,u,v,price,x1"])
        with pytest.raises(IngestionError):
            load_csv(path, SMALL_SCHEMA)

    def test_dummy_expansion_drops_first_sorted_level(self, tmp_path):
        schema = {"columns": SMALL_SCHEMA["columns"]
                  + [{"name": "land_use", "role": "dummy-source"}]}
        path = tmp_path / "dummy.csv"
        write_lines(path, [
            "id,u,v,price,x1,land_use",
            "a,0.0,0.0,10.0,1.0,residential",
            "b,1.0,0.0,11.0,2.0,commercial",
            "c,0.0,1.0,12.0,3.0,residential",
        ])
        table, _ = load_csv(path, schema)
        # "commercial" sorts first and becomes the reference level.
        assert table.covariate_names == ["x1", "land_use=residential"]
        assert table.dummy_names == ["land_use=residential"]
        np.testing.assert_array_equal(
            table.covariate_matrix(["land_use=residential"]).ravel(),
            [1.0, 0.0, 1.0])

    def test_default_schema_used_when_none(self, tmp_path):
        records, _ = hedonic_records(n=12, seed=3)
        path = tmp_path / "hedonic.csv"
        write_records(records, path)
        table, report = load_csv(path)
        assert report.accepted_rows == 12
        assert "floor_area" in table.covariate_names
        assert any(c.startswith("land_use=") for c in table.covariate_names)


class TestSchemaAndRoundTrip:
    def test_load_schema_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(DEFAULT_SCHEMA), encoding="utf-8")
        assert load_schema(path) == DEFAULT_SCHEMA

    def test_schema_requires_two_coordinates(self, tmp_path):
        bad = {"columns": [
            {"name": "id", "role": "id"},
            {"name": "u", "role": "coordinate"},
            {"name": "price", "role": "response"},
            {"name": "x1", "role": "covariate"},
        ]}
        path = tmp_path / "one_coord.csv"
        write_lines(path, ["id,u,price,x1", "a,0.0,1.0,2.0"])
        with pytest.raises(SchemaError):
            load_csv(path, bad)

    def test_write_read_round_trip(self, tmp_path):
        table = random_table(n=17, p=3, seed=2)
        path = tmp_path / "rt.csv"
        write_csv(table, path)
        back, report = load_csv(path, table_schema(table))
        assert report.rejections == []
        assert back.ids == table.ids
        np.testing.assert_array_equal(back.coords, table.coords)
        np.testing.assert_array_equal(back.y, table.y)
        np.testing.assert_array_equal(back.covariates, table.covariates)

    def test_query_csv_strict(self, tmp_path):
        path = tmp_path / "q.csv"
        write_lines(path, ["u,v,x1", "0.5,0.5,1.0", "1.5,0.5,oops"])
        with pytest.raises(IngestionError):
            load_query_csv(path, ["x1"])

    def test_query_csv_reads_coords_and_covariates(self, tmp_path):
        path = tmp_path / "q.csv"
        write_lines(path, ["u,v,x1", "0.5,0.25,1.0", "1.5,0.75,2.0"])
        ids, coords, covs = load_query_csv(path, ["x1"])
        np.testing.assert_array_equal(coords, [[0.5, 0.25], [1.5, 0.75]])
        np.testing.assert_array_equal(covs, [[1.0], [2.0]])
        assert len(ids) == 2


class TestSplit:
    def test_ten_records_default_fraction(self):
        table = random_table(n=10, seed=1)
        train, test = split(table, SplitSpec(train_fraction=0.8, seed=0))
        assert train.n == 8
        assert test.n == 2

    def test_large_table_fraction(self):
        table = random_table(n=1035, seed=1)
        train, test = split(table, SplitSpec(train_fraction=0.8, seed=0))
        assert train.n == 828
        assert test.n == 207

    def test_disjoint_and_covering(self):
        table = random_table(n=40, seed=5)
        train, test = split(table, SplitSpec(seed=3))
        assert set(train.ids) | set(test.ids) == set(table.ids)
        assert set(train.ids) & set(test.ids) == set()

    def test_seed_determinism(self):
        table = random_table(n=40, seed=5)
        a1, b1 = split(table, SplitSpec(seed=9))
        a2, b2 = split(table, SplitSpec(seed=9))
        assert a1.ids == a2.ids and b1.ids == b2.ids
        a3, _ = split(table, SplitSpec(seed=10))
        assert a3.ids != a1.ids

    def test_extreme_fraction_keeps_both_sides_non_empty(self):
        table = random_table(n=10, seed=0)
        train, test = split(table, SplitSpec(train_fraction=0.999, seed=0))
        assert train.n == 9 and test.n == 1
        train, test = split(table, SplitSpec(train_fraction=0.001, seed=0))
        assert train.n == 1 and test.n == 9

    def test_rows_keep_alignment(self):
        table = random_table(n=25, seed=8)
        train, _ = split(table, SplitSpec(seed=4))
        for i, rid in enumerate(train.ids):
            j = table.ids.index(rid)
            np.testing.assert_array_equal(train.coords[i], table.coords[j])
            assert train.y[i] == table.y[j]

    def test_too_small_table_rejected(self):
        table = random_table(n=4, seed=0)
        with pytest.raises(ParameterError):
            split(table, SplitSpec())

    def test_bad_fraction_rejected(self):
        with pytest.raises(ParameterError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ParameterError):
            SplitSpec(train_fraction=0.0)


class TestStandardize:
    def make_table(self, col):
        n = len(col)
        return ObservationTable(
            ids=[f"r{i}" for i in range(n)],
            coords=np.zeros((n, 2)) + np.arange(n)[:, None],
            y=np.zeros(n),
            covariates=np.asarray(col, dtype=float)[:, None],
            covariate_names=["x1"],
        )

    @pytest.mark.parametrize("std", [0.0, -2.0, np.nan, np.inf])
    def test_constructed_stds_must_be_finite_and_positive(self, std):
        # Direct construction meets the rule a loaded transform does: a
        # zero std divided by zero in apply, and -2.0 mapped 1.0 to -0.5.
        for stds in ([std], np.array([std])):
            with pytest.raises(ParameterError):
                StandardizationTransform(columns=["x1"],
                                         means=np.array([0.0]), stds=stds)
        with pytest.raises(ParameterError):
            StandardizationTransform.from_dict(
                {"columns": ["x1", "x2"], "means": [0.0, 0.0],
                 "stds": [1.0, std if np.isfinite(std) else -1.0]})

    @pytest.mark.parametrize("columns, means, stds, error", [
        (["a"], [np.nan], [1.0], ParameterError),
        (["a"], [-np.inf], [1.0], ParameterError),
        (["a"], ["0.5"], [1.0], ParameterError),
        (["a", "b"], [1.0], [1.0], DimensionError),
        (["a", "b"], [1.0, 0.0], [1.0], DimensionError),
        (["a"], [[1.0, 0.0]], [1.0], DimensionError),
    ], ids=["nan-mean", "inf-mean", "string-mean", "one-mean-one-std",
            "one-std", "two-means"])
    def test_constructed_means_and_stds_one_finite_per_column(
            self, columns, means, stds, error):
        # One finite mean and std per column, or apply would return NaN
        # or broadcast one mean and std over two columns.
        with pytest.raises(error):
            StandardizationTransform(columns=columns, means=means, stds=stds)

    @pytest.mark.parametrize("matrix, error", [
        ([[np.nan]], ParameterError),
        ([[1.0], [np.inf]], ParameterError),
        ([["1.0"]], ParameterError),
        ([[1.0], [2.0, 3.0]], ParameterError),
        ([[1.0, 3.0]], DimensionError),
        ([[[1.0]]], DimensionError),
    ], ids=["nan", "inf", "string", "ragged", "two-columns", "3d"])
    def test_apply_checks_its_matrix(self, matrix, error):
        transform = StandardizationTransform(columns=["a"], means=[0.0],
                                             stds=[2.0])
        with pytest.raises(error):
            transform.apply(matrix)

    def test_reference_example(self):
        # (1, 2, 3) standardizes to (-1, 0, 1): mean 2, n-1 denominator.
        table = self.make_table([1.0, 2.0, 3.0])
        transform = standardize(table, ["x1"])
        np.testing.assert_allclose(transform.apply_table(table).ravel(),
                                   [-1.0, 0.0, 1.0], atol=1e-15)
        assert transform.means[0] == pytest.approx(2.0)
        assert transform.stds[0] == pytest.approx(1.0)

    def test_output_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(13)
        col = rng.normal(loc=5, scale=3, size=60)
        table = self.make_table(col)
        z = standardize(table, ["x1"]).apply_table(table).ravel()
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std(ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_zero_variance_column_excluded_with_warning(self):
        table = self.make_table([4.0, 4.0, 4.0])
        with pytest.warns(UserWarning, match="zero-variance"):
            transform = standardize(table, ["x1"])
        assert transform.excluded == ["x1"]
        assert transform.columns == []
        # The column drops out rather than being zeroed or NaN'd.
        assert transform.apply_table(table).shape == (3, 0)

    def test_overflowing_column_raises(self):
        # 1e308 in x1 overflows its variance. Before, x1 was excluded as
        # "zero-variance" after an overflow RuntimeWarning.
        table = random_table(n=12, p=2, seed=1)
        covariates = table.covariates.copy()
        covariates[3, 0] = 1e308
        table = dataclasses.replace(table, covariates=covariates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"\['x1'\]"):
                fit_cwr(table, ["x1", "x2"], r=0.5, bandwidth=0.5)

    def test_transform_reuse_on_query_rows(self):
        transform = standardize(self.make_table([1.0, 2.0, 3.0]), ["x1"])
        got = transform.apply(np.array([[2.5], [0.0]]))
        np.testing.assert_allclose(got.ravel(), [0.5, -2.0])

    def test_transform_dict_round_trip(self):
        transform = standardize(self.make_table([1.0, 5.0, 9.0]), ["x1"])
        clone = StandardizationTransform.from_dict(transform.to_dict())
        M = np.array([[3.0], [7.0]])
        np.testing.assert_array_equal(transform.apply(M), clone.apply(M))

    def test_untouched_columns_pass_through(self, small_table):
        # apply_table reads only the transform's columns, and neither
        # step writes into the table.
        before = small_table.covariates.copy()
        transform = standardize(small_table, ["x1"])
        np.testing.assert_array_equal(
            transform.apply_table(small_table),
            transform.apply(small_table.covariate_matrix(["x1"])))
        assert transform.apply_table(small_table).shape == (small_table.n, 1)
        np.testing.assert_array_equal(small_table.covariates, before)


class TestSyntheticGenerators:
    def test_seed_determinism(self):
        for regime in ("geo", "attr", "mixed"):
            t1, _ = generate_synthetic(regime, n=40, seed=5)
            t2, _ = generate_synthetic(regime, n=40, seed=5)
            assert t1.to_dict() == t2.to_dict()
            t3, _ = generate_synthetic(regime, n=40, seed=6)
            assert t1.to_dict() != t3.to_dict()

    def test_noiseless_response_matches_truth_exactly(self):
        # sigma=0 leaves y = b0(s) + b1(s) * x1 with no noise term.
        for regime in ("geo", "attr", "mixed"):
            table, truth = generate_synthetic(regime, n=50, sigma=0.0, seed=2)
            expected = truth.intercepts + np.sum(
                truth.slopes * table.covariates, axis=1)
            np.testing.assert_allclose(table.y, expected, rtol=1e-12)

    def test_geo_truth_surface_query(self):
        table, truth = generate_synthetic("geo", n=30, sigma=0.0, seed=4)
        b0, b1 = truth.coefficients_at(table.coords)
        np.testing.assert_allclose(b0, truth.intercepts, rtol=1e-12)
        np.testing.assert_allclose(b1, truth.slopes.ravel(), rtol=1e-12)

    def test_attr_truth_has_no_surface(self):
        _, truth = generate_synthetic("attr", n=30, seed=4)
        with pytest.raises(ParameterError):
            truth.coefficients_at(np.zeros((1, 2)))

    def test_attr_regime_two_cluster_structure(self):
        table, truth = generate_synthetic("attr", n=200, sigma=0.0, seed=7)
        values = sorted(set(np.round(truth.intercepts, 9)))
        assert values == sorted(ATTR_DEFAULTS["cluster_intercepts"])
        slopes = sorted(set(np.round(truth.slopes.ravel(), 9)))
        assert slopes == sorted(ATTR_DEFAULTS["cluster_slopes"])

    def test_mixed_regime_interpolates(self):
        # mix=0 reproduces the attr surfaces, mix=1 the geo surfaces.
        t_attr, tr_attr = generate_synthetic("mixed", n=40, sigma=0.0,
                                             seed=3, mix=0.0)
        t_geo, tr_geo = generate_synthetic("mixed", n=40, sigma=0.0,
                                           seed=3, mix=1.0)
        ref_attr, tra = generate_synthetic("attr", n=40, sigma=0.0, seed=3)
        ref_geo, trg = generate_synthetic("geo", n=40, sigma=0.0, seed=3)
        np.testing.assert_allclose(tr_attr.intercepts, tra.intercepts)
        np.testing.assert_allclose(tr_geo.intercepts, trg.intercepts)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic("temporal", n=20)

    def test_unknown_param_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic("geo", n=20, wavelength=3)

    @pytest.mark.parametrize("params", [
        {"extent": "x"}, {"mix": True}, {"slope_amp": np.nan},
        {"cluster_centers": [1.0]}, {"cluster_centers": (1.0, np.inf)},
        {"cluster_sd": (0.5, 0.5)}, {"extent": 0}, {"extent": -5.0},
        {"cluster_sd": -1}, {"mix": 1.5},
    ])
    def test_param_values_must_match_their_defaults(self, params):
        # A finite real (not a bool), or a pair of them for a pair, in
        # the parameter's range: extent > 0, cluster_sd >= 0, mix in
        # [0, 1].
        with pytest.raises(ParameterError, match="generator parameter"):
            generate_synthetic("mixed", n=20, **params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("generate, params", [
        ("geo", {"extent": 1e308}),
        ("attr", {"cluster_sd": 1e308}),
        ("mixed", {"cluster_centers": (-1e308, 1e308)}),
        ("hedonic", {"extent": 1e308}),
        ("hedonic", {"floor_area_effect": 1e308}),
    ])
    def test_overflowing_params_rejected_silently(self, generate, params):
        with pytest.raises(ParameterError,
                           match="generator parameters overflow"):
            if generate == "hedonic":
                generate_hedonic(n=20, **params)
            else:
                generate_synthetic(generate, n=20, **params)

    def test_param_values_accept_numbers_and_pairs(self):
        a, _ = generate_synthetic("attr", n=20, seed=1, extent=np.int64(500),
                                  cluster_centers=[-1, 1])
        b, _ = generate_synthetic("attr", n=20, seed=1, extent=500.0,
                                  cluster_centers=(-1.0, 1.0))
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.covariates, b.covariates)
    def test_too_small_n_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic("geo", n=5)

    @pytest.mark.parametrize("generate", ["geo", "mixed", "hedonic"])
    @pytest.mark.parametrize("settings, match", [
        ({"n": 50.0}, "n >= 10"), ({"n": True}, "n >= 10"),
        ({"n": "50"}, "n >= 10"), ({"n": 10 ** 400}, "n >= 10"),
        ({"sigma": np.nan}, "sigma"), ({"sigma": -1.0}, "sigma"),
        ({"sigma": True}, "sigma"), ({"sigma": "1"}, "sigma"),
        ({"seed": 1.0}, "seed"),
    ], ids=["float-n", "bool-n", "string-n", "huge-integer-n", "nan-sigma",
            "negative-sigma", "bool-sigma", "string-sigma", "float-seed"])
    def test_every_generator_checks_n_sigma_and_seed(self, generate,
                                                     settings, match):
        # The generators own these checks, for the CLI's synth config too.
        with pytest.raises(ParameterError, match=match):
            if generate == "hedonic":
                generate_hedonic(**{"n": 20, **settings})
            else:
                generate_synthetic(generate, **{"n": 20, **settings})

    def test_sigma_scales_residual_noise(self):
        quiet, truth_q = generate_synthetic("geo", n=300, sigma=0.1, seed=1)
        loud, truth_l = generate_synthetic("geo", n=300, sigma=5.0, seed=1)
        rq = quiet.y - (truth_q.intercepts
                        + truth_q.slopes.ravel() * quiet.covariates[:, 0])
        rl = loud.y - (truth_l.intercepts
                       + truth_l.slopes.ravel() * loud.covariates[:, 0])
        assert rl.std() > 10 * rq.std()


class TestHedonicGenerator:
    def test_determinism_and_shape(self):
        t1, truth = generate_hedonic(n=60, seed=9, n_poi=5)
        t2, _ = generate_hedonic(n=60, seed=9, n_poi=5)
        assert t1.to_dict() == t2.to_dict()
        assert t1.covariate_names[:2] == ["floor_area", "house_age"]
        assert sum(c.startswith("dist_") for c in t1.covariate_names) == 5

    def test_noiseless_truth(self):
        table, truth = generate_hedonic(n=50, sigma=0.0, seed=2, n_poi=4)
        expected = truth.intercepts + np.sum(
            truth.slopes * table.covariates, axis=1)
        np.testing.assert_allclose(table.y, expected, rtol=1e-10)

    def test_poi_columns_carry_no_signal(self):
        _, truth = generate_hedonic(n=30, seed=5, n_poi=6)
        assert np.all(truth.slopes[:, 2:] == 0.0)

    def test_records_include_full_schema(self):
        records, schema = hedonic_records(n=12, seed=1)
        names = {c["name"] for c in schema["columns"]}
        assert set(records[0].keys()) == names
        assert all(r["land_use"] for r in records)

    def test_records_round_trip_through_ingestion(self, tmp_path):
        records, schema = hedonic_records(n=15, seed=6)
        path = tmp_path / "h.csv"
        write_records(records, path)
        table, report = load_csv(path, schema)
        assert report.accepted_rows == 15
        assert report.rejections == []


@functools.cache
def array_entry_points():
    """name -> (valid arguments, call): every entry point that takes a
    caller's numeric arrays, with valid arguments for each."""
    table = random_table(n=12, p=2, seed=90)
    query = {"coords": table.coords[:4], "covariates": table.covariates[:4]}
    points = {
        "ObservationTable": (
            {"coords": table.coords, "y": table.y,
             "covariates": table.covariates},
            lambda **a: ObservationTable(ids=table.ids,
                                         covariate_names=["x1", "x2"], **a)),
        "solve_wls": ({"X": design_matrix(table.covariates), "y": table.y,
                       "w": np.ones(12)}, solve_wls),
        "fit_lsboost": ({"X": table.covariates, "y": table.y},
                        lambda **a: fit_lsboost(n_trees=2, min_leaf=2, **a)),
        "geographic_distances": (
            {"coords_a": query["coords"], "coords_b": table.coords},
            geographic_distances),
        "attribute_distances": (
            {"attrs_a": query["covariates"], "attrs_b": table.covariates},
            attribute_distances),
        "StandardizationTransform.apply": (
            {"matrix": table.covariates},
            standardize(table, ["x1", "x2"]).apply),
    }
    config = ComparisonConfig(boost_trees=2, bandwidth_grid_size=3,
                              r_grid=(0.5,))
    for name in ("ols", "lsboost", "gwr", "cwr"):
        model = fit_model(name, table, config)[0]
        points[f"{name}.predict"] = (query, model.predict)
    local_fit = dataclasses.replace(model, mode="local-fit")
    points["cwr.predict local-fit"] = (query, local_fit.predict)
    return points


MUTATIONS = ("nan", "inf", "drop-row", "drop-column", "string", "ragged")


@st.composite
def mutated_calls(draw):
    """(entry point, its arguments with one array mutated, mutation)."""
    name = draw(st.sampled_from(sorted(array_entry_points())))
    args, call = array_entry_points()[name]
    key = draw(st.sampled_from(sorted(args)))
    kind = draw(st.sampled_from(MUTATIONS))
    a = np.array(args[key], dtype=float)
    cell = tuple(draw(st.integers(0, size - 1)) for size in a.shape)
    if kind in ("nan", "inf"):
        a[cell] = np.nan if kind == "nan" else draw(
            st.sampled_from([np.inf, -np.inf]))
        value = a if draw(st.booleans()) else a.tolist()
    elif kind.startswith("drop"):
        axis = a.ndim - 1 if kind == "drop-column" else 0
        value = np.delete(a, cell[axis], axis=axis)
    else:
        value = row = a.tolist()
        for i in cell[:-1]:
            row = row[i]
        if kind == "string":
            row[cell[-1]] = draw(st.sampled_from(["1.5", "x", "", "nan"]))
        elif a.ndim == 1:
            row[cell[-1]] = [row[cell[-1]], 1.0]
        else:
            row.append(1.0)
    return name, {**args, key: value}, kind


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutated_calls())
def test_mutated_arrays_end_in_a_cwreg_error(case):
    # Every entry point taking a caller's array meets the one array
    # rule: a NaN or inf, a string or a ragged row raises a CwregError;
    # a dropped row or column raises one or gives a finite result. No
    # other exception, and no NaN or inf out.
    name, args, kind = case
    call = array_entry_points()[name][1]
    try:
        result = call(**args)
    except CwregError:
        return
    assert kind.startswith("drop"), (name, kind)
    if isinstance(result, np.ndarray):
        assert np.all(np.isfinite(result)), (name, kind)
