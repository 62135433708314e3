"""Comparison harness: metrics, reports, batch runs, map export."""

import csv
import json
import math

import numpy as np
import pytest

import cwreg.evaluate as evaluate
import cwreg.local
from cwreg.data import (ObservationTable, generate_synthetic, json_text,
                         write_csv)
from cwreg.errors import (
    CwregError,
    DimensionError,
    ParameterError,
    UndefinedImprovementError,
)
from cwreg.evaluate import (
    ComparisonConfig,
    export_maps,
    improvement_pct,
    rmse,
    run_batch,
    run_comparison,
)
from cwreg.local import fit_cwr

from conftest import random_table


FAST = ComparisonConfig(
    models=("ols", "gwr", "cwr", "lsboost"),
    r_grid=(0.0, 0.5, 1.0),
    bandwidth_grid_size=5,
    boost_trees=10,
)


class TestRmse:
    def test_hand_worked_values(self):
        # Errors (3, -4) give sqrt((9 + 16) / 2) = sqrt(12.5).
        assert rmse([0.0, 0.0], [3.0, -4.0]) == pytest.approx(
            np.sqrt(12.5), rel=1e-15)
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            rmse([1.0, 2.0], [1.0])
        with pytest.raises(DimensionError):
            rmse([], [])


class TestImprovementPct:
    def test_reference_pairs(self):
        assert improvement_pct(100.0, 93.0) == pytest.approx(7.0, abs=1e-12)
        assert improvement_pct(153.5, 121.5) == pytest.approx(
            20.846905537459284, rel=1e-12)

    def test_worse_model_is_negative(self):
        assert improvement_pct(10.0, 12.5) == pytest.approx(-25.0)

    def test_zero_improvement(self):
        assert improvement_pct(5.0, 5.0) == 0.0

    def test_undefined_baselines(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(UndefinedImprovementError):
                improvement_pct(bad, 1.0)


class TestComparisonConfig:
    def test_dict_round_trip(self):
        config = ComparisonConfig(models=("ols", "cwr"), seed=3, r=0.4,
                                  r_grid=(0.0, 1.0), select_top_k=2)
        clone = ComparisonConfig.from_dict(config.to_dict())
        assert clone == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            ComparisonConfig.from_dict({"model_list": ["ols"]})

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError):
            ComparisonConfig(models=("ols", "kriging"))

    @pytest.mark.parametrize("kwargs", [
        {"seed": "1"}, {"seed": True}, {"seed": 1.0}, {"knn": None},
        {"select_top_k": 2.5}, {"boost_trees": False},
        {"train_fraction": "0.5"}, {"train_fraction": None},
        {"boost_shrinkage": True}, {"r": [0.5]}, {"bandwidth": None},
        {"models": 5}, {"r_grid": ["x"]}, {"attribute_columns": 3},
        # A report writes its config, and NaN and Infinity are not JSON.
        {"bandwidth": math.inf}, {"r": math.nan}, {"train_fraction": math.nan},
        {"boost_shrinkage": -math.inf}, {"r_grid": (0.0, math.nan)},
        {"r_grid": [math.inf]},
    ])
    def test_wrong_typed_fields_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ComparisonConfig(**kwargs)

    @pytest.mark.parametrize("r_grid", [(True, False), [0.5, True],
                                        (0.5, "1"), [[0.5]]])
    def test_r_grid_holds_numbers_not_bools(self, r_grid):
        # Each candidate is checked as DistanceSpec checks r, so a bool
        # is refused, not read as 0.0 or 1.0.
        with pytest.raises(ParameterError):
            ComparisonConfig(r_grid=r_grid)
        assert ComparisonConfig(r_grid=(0, np.float64(0.5), 1)).r_grid == (
            0.0, 0.5, 1.0)

    def test_numeric_fields_accept_numbers_of_their_kind(self):
        config = ComparisonConfig(seed=np.int64(3), train_fraction=1,
                                  boost_shrinkage=np.float32(0.5), r=1,
                                  bandwidth="cv", select_top_k=None)
        assert config.seed == 3 and config.r == 1

    def test_empty_models_rejected(self):
        with pytest.raises(ParameterError):
            ComparisonConfig(models=())


class TestRunComparison:
    def make_table(self, n=60, seed=0):
        table, _ = generate_synthetic("attr", n=n, sigma=0.5, seed=seed)
        return table

    def test_report_internally_consistent(self):
        table = self.make_table()
        report = run_comparison(table, FAST)
        doc = report.to_dict()
        assert doc["n_total"] == doc["n_train"] + doc["n_test"] == table.n
        for name in FAST.models:
            entry = doc["models"][name]
            assert entry["error"] is None
            rows = doc["residuals"][name]
            assert len(rows) == doc["n_test"]
            # Reported RMSE must equal the RMSE of the residual rows.
            recomputed = float(np.sqrt(np.mean(
                [row["residual"] ** 2 for row in rows])))
            assert entry["rmse"] == pytest.approx(recomputed, rel=1e-12)
            for row in rows:
                assert row["residual"] == pytest.approx(
                    row["actual"] - row["predicted"], rel=1e-12)

    def test_improvement_matrix_matches_rmse_pairs(self):
        report = run_comparison(self.make_table(), FAST)
        doc = report.to_dict()
        for a, row in doc["improvements"].items():
            for b, value in row.items():
                expected = improvement_pct(doc["models"][b]["rmse"],
                                           doc["models"][a]["rmse"])
                assert value == pytest.approx(expected, rel=1e-12)
        assert "ols" not in doc["improvements"]["ols"]

    def test_test_rows_never_seen_in_training(self):
        table = self.make_table()
        report = run_comparison(table, FAST)
        train_ids = set(table.ids) - set(report.test_ids)
        assert len(train_ids) == report.n_train
        assert len(report.test_ids) == report.n_test

    def test_failure_isolated_to_one_model(self, monkeypatch):
        real = evaluate.fit_model

        def sabotaged(name, train, config):
            if name == "gwr":
                raise CwregError("induced failure")
            return real(name, train, config)

        monkeypatch.setattr(evaluate, "fit_model", sabotaged)
        report = run_comparison(self.make_table(), FAST)
        doc = report.to_dict()
        assert doc["models"]["gwr"]["error"] == "CwregError: induced failure"
        assert doc["models"]["gwr"]["rmse"] is None
        for name in ("ols", "cwr", "lsboost"):
            assert doc["models"][name]["error"] is None
            assert doc["models"][name]["rmse"] > 0
        # Failed models drop out of the improvement matrix entirely.
        assert "gwr" not in doc["improvements"]
        assert all("gwr" not in row for row in doc["improvements"].values())
        assert "gwr" not in doc["residuals"]

    def test_factor_selection_restricts_covariates(self):
        from cwreg.data import generate_hedonic
        table, _ = generate_hedonic(n=80, sigma=2.0, seed=4, n_poi=4)
        config = ComparisonConfig(models=("ols",), select_top_k=2,
                                  boost_trees=25)
        report = run_comparison(table, config)
        assert report.selected_factors is not None
        assert len(report.selected_factors) == 2
        assert set(report.selected_factors) == {"floor_area", "house_age"}

    def test_seed_changes_split(self):
        table = self.make_table()
        r1 = run_comparison(table, ComparisonConfig(models=("ols",), seed=0))
        r2 = run_comparison(table, ComparisonConfig(models=("ols",), seed=1))
        assert r1.test_ids != r2.test_ids

    def test_json_byte_determinism(self):
        table = self.make_table()
        a = json_text(run_comparison(table, FAST).to_dict())
        b = json_text(run_comparison(table, FAST).to_dict())
        assert a == b
        doc = json.loads(a)
        assert doc["format"] == "cwreg-comparison"

    def test_report_holds_no_search_counts(self, monkeypatch):
        # The models' traces, with their ridge and failure counts, stay
        # out of the report, and its bytes are the same whether the r
        # search ran on two threads or on the calling thread alone.
        table = self.make_table()
        shared = json_text(run_comparison(table, FAST).to_dict())
        monkeypatch.setattr(cwreg.local, "_blas_threads", lambda: None)
        assert json_text(run_comparison(table, FAST).to_dict()) == shared
        for key in ("traces", "n_regularized", "n_failed"):
            assert key not in shared

    def test_gwr_always_pure_geographic(self):
        report = run_comparison(self.make_table(), FAST)
        assert report.results["gwr"].params["r"] == 1.0
        # The searched CWR on attr-regime data moves away from r = 1.
        assert report.results["cwr"].params["r"] < 1.0


class TestRunBatch:
    def test_two_case_manifest(self, tmp_path):
        t1, _ = generate_synthetic("geo", n=50, sigma=0.5, seed=1)
        t2, _ = generate_synthetic("attr", n=50, sigma=0.5, seed=2)
        write_csv(t1, tmp_path / "geo.csv")
        write_csv(t2, tmp_path / "attr.csv")
        from cwreg.data import table_schema
        (tmp_path / "schema.json").write_text(
            json.dumps(table_schema(t1)), encoding="utf-8")
        manifest = {"cases": [
            {"name": "geo", "data": "geo.csv", "schema": "schema.json"},
            {"name": "attr", "data": "attr.csv", "schema": "schema.json",
             "config": {"models": ["ols", "cwr"]}},
        ]}
        base = ComparisonConfig(models=("ols",), r_grid=(0.0, 1.0),
                                bandwidth_grid_size=4)
        out = run_batch(manifest, base, base_dir=tmp_path)
        assert out["format"] == "cwreg-batch"
        assert [c["name"] for c in out["cases"]] == ["geo", "attr"]
        assert set(out["cases"][0]["models"]) == {"ols"}
        assert set(out["cases"][1]["models"]) == {"ols", "cwr"}
        assert out["cases"][1]["errors"] == {}

    def test_manifest_validation(self):
        with pytest.raises(ParameterError):
            run_batch({"cases": []})
        with pytest.raises(ParameterError):
            run_batch({"cases": [{"name": "x"}]})

    def test_manifest_rejects_stray_case_keys(self):
        # "models" at case level is a misplaced config entry, not a
        # silent no-op.
        case = {"name": "x", "data": "x.csv", "models": ["ols"], "seed": 1}
        with pytest.raises(ParameterError, match="config"):
            run_batch({"cases": [case]})


class TestExportMaps:
    def test_two_by_two_lattice(self, tmp_path):
        table = random_table(n=30, p=2, seed=70)
        model = fit_cwr(table, r=1.0, bandwidth=0.5)
        export = export_maps(model, table, (2, 2), str(tmp_path / "m"))
        assert export.grid_coords.shape == (4, 2)
        with open(export.grid_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        # Corners of the training bounding box.
        us = sorted({float(r["u"]) for r in rows})
        assert us[0] == pytest.approx(table.coords[:, 0].min())
        assert us[-1] == pytest.approx(table.coords[:, 0].max())
        with open(export.residual_path, newline="") as fh:
            res_rows = list(csv.DictReader(fh))
        assert len(res_rows) == table.n
        assert export.n_residuals == table.n

    def test_grid_covariates_default_to_training_median(self, tmp_path):
        table = random_table(n=21, p=2, seed=71)
        model = fit_cwr(table, r=1.0, bandwidth=0.5)
        export = export_maps(model, table, (2, 1), str(tmp_path / "m"))
        with open(export.grid_path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["x1"]) == pytest.approx(
            float(np.median(table.covariates[:, 0])), rel=1e-12)

    def test_covariate_override(self, tmp_path):
        table = random_table(n=21, p=2, seed=72)
        model = fit_cwr(table, r=1.0, bandwidth=0.5)
        export = export_maps(model, table, (1, 1), str(tmp_path / "m"),
                             covariate_values={"x2": 9.5})
        with open(export.grid_path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["x2"]) == 9.5
        with pytest.raises(ParameterError):
            export_maps(model, table, (1, 1), str(tmp_path / "m2"),
                        covariate_values={"x9": 1.0})

    def test_residuals_match_model_predictions(self, tmp_path):
        table = random_table(n=25, p=2, seed=73)
        model = fit_cwr(table, r=1.0, bandwidth=0.5)
        export = export_maps(model, table, (2, 2), str(tmp_path / "m"))
        predictions = model.predict_table(table)
        with open(export.residual_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            assert float(row["predicted"]) == pytest.approx(
                float(predictions[i]), rel=1e-12)
            assert float(row["residual"]) == pytest.approx(
                table.y[i] - predictions[i], rel=1e-9, abs=1e-12)

    def test_grid_recovers_smooth_truth_surface(self, tmp_path):
        # Noiseless geo regime: grid predictions at the median
        # covariate should track b0(u, v) + b1(u, v) * x_med. Corner
        # lattice points sit outside the training cloud and lean on
        # one-sided neighbors, so the max error is looser than the
        # mean.
        table, truth = generate_synthetic("geo", n=250, sigma=0.0, seed=8)
        model = fit_cwr(table, r=1.0, bandwidth=0.05)
        export = export_maps(model, table, (5, 5), str(tmp_path / "m"))
        x_med = float(np.median(table.covariates[:, 0]))
        b0, b1 = truth.coefficients_at(export.grid_coords)
        expected = b0 + b1 * x_med
        rel = np.abs(export.grid_predictions - expected) / np.abs(expected)
        assert rel.mean() < 0.05
        assert rel.max() < 0.20

    def test_lattice_validation(self, tmp_path):
        table = random_table(n=20, p=1, seed=74)
        model = fit_cwr(table, r=1.0, bandwidth=0.5)
        with pytest.raises(ParameterError):
            export_maps(model, table, (0, 3), str(tmp_path / "m"))
