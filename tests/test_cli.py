"""End-to-end command-line coverage through cli.main."""

import copy
import csv
import io
import json
import math
import numbers
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwreg
import cwreg.local
from cwreg.cli import main
from cwreg.data import (ObservationTable, _finite_number, _numbers,
                        generate_synthetic, table_schema, write_csv,
                        write_json)
from cwreg.errors import ParameterError
from cwreg.models import load_model, save_model


def reject_constant(name):
    """json.loads hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(argv):
    return main([str(a) for a in argv])


def make_dataset(tmp_path, regime="attr", n=80, sigma=0.5, seed=0):
    data = tmp_path / f"{regime}.csv"
    schema = tmp_path / f"{regime}_schema.json"
    code = run_cli(["synth", "--regime", regime, "--n", n, "--sigma", sigma,
                    "--seed", seed, "--out", data, "--schema-out", schema])
    assert code == 0
    return data, schema


class TestSynth:
    def test_writes_csv_schema_and_truth(self, tmp_path, capsys):
        data = tmp_path / "geo.csv"
        schema = tmp_path / "schema.json"
        truth = tmp_path / "truth.json"
        code = run_cli(["synth", "--regime", "geo", "--n", 40, "--seed", 3,
                        "--out", data, "--schema-out", schema,
                        "--truth-out", truth])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        with open(data, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert set(rows[0]) == {"id", "u", "v", "price", "x1"}
        doc = json.loads(truth.read_text())
        assert doc["regime"] == "geo"
        assert len(doc["intercepts"]) == 40
        schema_doc = json.loads(schema.read_text())
        assert {c["name"] for c in schema_doc["columns"]} == {
            "id", "u", "v", "price", "x1"}

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["synth", "--regime", "attr", "--n", 30, "--seed", 7,
                 "--out", a])
        run_cli(["synth", "--regime", "attr", "--n", 30, "--seed", 7,
                 "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_overrides_flags(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"regime": "attr", "n": 25, "seed": 9}),
                        encoding="utf-8")
        out = tmp_path / "d.csv"
        code = run_cli(["synth", "--regime", "geo", "--n", 999,
                        "--config", conf, "--out", out])
        assert code == 0
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 25

    def test_hedonic_regime_full_schema(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run_cli(["synth", "--regime", "hedonic", "--n", 15,
                        "--out", out])
        assert code == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert "land_use" in header
        assert "n_rooms" in header

    def test_hedonic_truth_out_rejected(self, tmp_path, capsys):
        code = run_cli(["synth", "--regime", "hedonic", "--n", 15,
                        "--out", tmp_path / "h.csv",
                        "--truth-out", tmp_path / "t.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"


class TestImportance:
    def test_ranking_printed_and_exported(self, tmp_path, capsys):
        data = tmp_path / "h.csv"
        run_cli(["synth", "--regime", "hedonic", "--n", 120, "--sigma", 2.0,
                 "--seed", 1, "--out", data])
        capsys.readouterr()
        out = tmp_path / "imp.csv"
        code = run_cli(["importance", "--data", data, "--trees", 25,
                        "--out", out])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        top_two = {lines[0].split()[1], lines[1].split()[1]}
        assert top_two == {"floor_area", "house_age"}
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["rank"] == "1"


class TestFitAndPredict:
    def test_fit_cwr_fixed_r_and_predict(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path)
        model_path = tmp_path / "model.json"
        code = run_cli(["fit", "--model", "cwr", "--data", data,
                        "--schema", schema, "--r", 0.3, "--bandwidth", 0.5,
                        "--out", model_path])
        assert code == 0
        model = load_model(model_path)
        assert model.fit.spec.r == 0.3
        query = tmp_path / "query.csv"
        query.write_text("u,v,x1\n100.0,200.0,1.5\n800.0,300.0,-2.0\n",
                         encoding="utf-8")
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = run_cli(["predict", "--model", model_path, "--query", query,
                        "--out", out])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(float(r["predicted"]) == float(r["predicted"])
                   for r in rows)

    def test_fit_ols_and_lsboost(self, tmp_path):
        data, schema = make_dataset(tmp_path)
        for name in ("ols", "lsboost"):
            path = tmp_path / f"{name}.json"
            code = run_cli(["fit", "--model", name, "--data", data,
                            "--schema", schema, "--trees", 10,
                            "--out", path])
            assert code == 0
            doc = json.loads(path.read_text())
            assert doc["model_type"] == name

    def test_predict_to_stdout(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path)
        model_path = tmp_path / "m.json"
        run_cli(["fit", "--model", "ols", "--data", data, "--schema", schema,
                 "--out", model_path])
        query = tmp_path / "q.csv"
        query.write_text("u,v,x1\n10.0,20.0,0.5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["predict", "--model", model_path, "--query", query])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id,u,v,predicted"
        assert len(lines) == 2

    def test_predict_quotes_ids_on_stdout_as_in_file(self, tmp_path, capsys):
        # stdout and --out are one CSV: an id holding a comma or a quote
        # is quoted, not split.
        data, schema = make_dataset(tmp_path)
        model_path = tmp_path / "m.json"
        run_cli(["fit", "--model", "ols", "--data", data, "--schema", schema,
                 "--out", model_path])
        query = tmp_path / "q.csv"
        with open(query, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["id", "u", "v", "x1"],
                                      ["a,b", 10.0, 20.0, 0.5],
                                      ['q"x', 1.0, 2.0, -0.5]])
        out = tmp_path / "p.csv"
        assert run_cli(["predict", "--model", model_path, "--query", query,
                        "--out", out]) == 0
        capsys.readouterr()
        assert run_cli(["predict", "--model", model_path,
                        "--query", query]) == 0
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        with open(out, newline="", encoding="utf-8") as fh:
            written = list(csv.reader(fh))
        assert printed == written
        assert [row[0] for row in printed] == ["id", "a,b", 'q"x']
        assert all(len(row) == 4 for row in printed)

    def test_overflowing_design_reports_json_error(self, tmp_path, capsys):
        # x1 * 1e155 overflows every normal matrix: the fit must refuse,
        # not save zero coefficients flagged as regularized.
        _, schema = make_dataset(tmp_path, regime="geo", n=40, seed=1)
        table, _ = generate_synthetic("geo", n=40, seed=1)
        table.covariates[:, 0] *= 1e155
        data = tmp_path / "huge.csv"
        write_csv(table, data)
        model_path = tmp_path / "m.json"
        capsys.readouterr()
        code = run_cli(["fit", "--model", "gwr", "--data", data,
                        "--schema", schema, "--r", 1, "--bandwidth", 100,
                        "--out", model_path])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "SingularFitError"
        assert not model_path.exists()

    def test_nan_system_reports_one_json_line(self, tmp_path):
        # Two covariates of order 1e160 make each X'WX NaN (+inf and
        # -inf cross products). A child process, so nothing of this one
        # hides a traceback: one JSON line, exit 1.
        rng = np.random.default_rng(1)
        table = ObservationTable(
            ids=[f"r{i}" for i in range(30)],
            coords=rng.uniform(0, 10, size=(30, 2)), y=rng.normal(size=30),
            covariates=rng.normal(size=(30, 2)) * 1e160,
            covariate_names=["x1", "x2"])
        data, schema = tmp_path / "nan.csv", tmp_path / "nan.json"
        write_csv(table, data)
        write_json(table_schema(table), schema)
        src = os.path.dirname(os.path.dirname(cwreg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "cwreg.cli", "fit", "--model", "gwr",
             "--data", str(data), "--schema", str(schema), "--r", "1",
             "--bandwidth", "0.5", "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr) == {
            "error": "SingularFitError",
            "message": "local fit at training location 0 cannot be solved, "
                       "even with the ridge"}
        assert not (tmp_path / "m.json").exists()

    def test_local_fit_query_without_weight_reports_json_error(
            self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path, n=40)
        model_path = tmp_path / "m.json"
        assert run_cli(["fit", "--model", "gwr", "--data", data,
                        "--schema", schema, "--bandwidth", 0.01,
                        "--predict-mode", "local-fit",
                        "--out", model_path]) == 0
        query = tmp_path / "q.csv"
        query.write_text("u,v,x1\n1e7,1e7,0.5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["predict", "--model", model_path, "--query", query])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err) == {
            "error": "DegenerateWeightsError",
            "message": "local fit at query 0: all observation weights are zero"}

    def test_strict_scoring_flag_accepted(self, tmp_path):
        data, schema = make_dataset(tmp_path, n=60)
        model_path = tmp_path / "m.json"
        code = run_cli(["fit", "--model", "gwr", "--data", data,
                        "--schema", schema, "--strict-paper-scoring",
                        "--out", model_path])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["traces"]["bandwidth"]["criterion"] == "loo_rmse"


class TestCompare:
    def test_report_to_stdout(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path, n=60)
        capsys.readouterr()
        code = run_cli(["compare", "--data", data, "--schema", schema,
                        "--models", "ols,lsboost", "--trees", 10])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "cwreg-comparison"
        assert set(doc["models"]) == {"ols", "lsboost"}

    def test_report_file_and_summary(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path, n=60)
        out = tmp_path / "report.json"
        capsys.readouterr()
        code = run_cli(["compare", "--data", data, "--schema", schema,
                        "--models", "ols,cwr", "--bandwidth", 0.5,
                        "--r", 0.2, "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "improvement" in text
        assert "rmse=" in text
        doc = json.loads(out.read_text(), parse_constant=reject_constant)
        assert doc["models"]["cwr"]["params"]["r"] == 0.2

    def test_manifest_batch(self, tmp_path, capsys):
        d1, s1 = make_dataset(tmp_path, regime="geo", n=50, seed=1)
        d2, _ = make_dataset(tmp_path, regime="attr", n=50, seed=2)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"cases": [
            {"name": "geo", "data": d1.name, "schema": s1.name},
            {"name": "attr", "data": d2.name, "schema": s1.name},
        ]}), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["compare", "--manifest", manifest,
                        "--models", "ols"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "cwreg-batch"
        assert [c["name"] for c in doc["cases"]] == ["geo", "attr"]

    def test_unknown_model_fails_cleanly(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path, n=60)
        capsys.readouterr()
        code = run_cli(["compare", "--data", data, "--schema", schema,
                        "--models", "ols,xgboost"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"


class TestMap:
    def test_grid_and_residual_export(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path, n=50)
        model_path = tmp_path / "m.json"
        run_cli(["fit", "--model", "cwr", "--data", data, "--schema", schema,
                 "--r", 0.5, "--bandwidth", 0.5, "--out", model_path])
        capsys.readouterr()
        code = run_cli(["map", "--model", model_path, "--data", data,
                        "--schema", schema, "--nx", 4, "--ny", 3,
                        "--out-prefix", tmp_path / "map"])
        assert code == 0
        with open(tmp_path / "map_grid.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 12
        with open(tmp_path / "map_residuals.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 50


class TestErrorHandling:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_search_overflow_reports_one_json_line(self, tmp_path, threads):
        # A response of order 1e155 overflows the search's squared
        # residuals. cli.main makes overflow an error, on the search's
        # two threads too, so stderr holds the one JSON line and no
        # warning. The child runs the search on one thread or on two.
        if threads == 2 and cwreg.local._blas_threads() is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
        data, schema = make_dataset(tmp_path, n=160, sigma=2.0, seed=1)
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        price = rows[0].index("price")
        for row in rows[1:]:
            row[price] = repr(float(row[price]) * 1e154)
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        patch = ("_usable_cpus = lambda: 2" if threads == 2
                 else "_blas_threads = lambda: None")
        script = (f"import sys, cwreg.local; cwreg.local.{patch}; "
                  "from cwreg.cli import main; sys.exit(main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(cwreg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, "fit", "--data", str(data),
             "--schema", str(schema), "--model", "cwr",
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "FloatingPointError"
        assert err["message"].startswith("overflow encountered")

    def test_missing_file_reports_json_error(self, tmp_path, capsys):
        code = run_cli(["importance", "--data", tmp_path / "nope.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err

    @pytest.mark.parametrize("flag, value", [("--bandwidth", "inf"),
                                             ("--r", "nan")])
    def test_non_finite_flag_reports_json_error(self, tmp_path, capsys,
                                                flag, value):
        # A report holding Infinity or NaN would not be JSON.
        data, schema = make_dataset(tmp_path, n=60)
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run_cli(["compare", "--data", data, "--schema", schema,
                        "--models", "ols,cwr", flag, value,
                        "--out", out]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ParameterError"
        assert not out.exists()

    def test_bad_r_value(self, tmp_path, capsys):
        data, schema = make_dataset(tmp_path, n=60)
        capsys.readouterr()
        code = run_cli(["fit", "--model", "cwr", "--data", data,
                        "--schema", schema, "--r", "auto",
                        "--out", tmp_path / "m.json"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("kind, corrupt", [
        ("cwr", lambda doc: doc.pop("spec")),
        ("cwr", lambda doc: doc["coefficients"].pop()),
        ("cwr", lambda doc: doc.__setitem__("standardization", None)),
        ("cwr", lambda doc: doc.__setitem__("traces", [])),
        ("cwr", None),
        ("cwr", lambda doc: doc.__setitem__("model_type", ["cwr"])),
        ("ols", lambda doc: doc.__setitem__("model_type", {"ols": 1})),
        ("cwr", lambda doc: doc.__setitem__("k", True)),
        ("cwr", lambda doc: doc["spec"].__setitem__("attribute_columns",
                                                    "x1")),
        ("ols", lambda doc: doc.__setitem__("coefficients", 1.5)),
        ("ols", lambda doc: doc.__setitem__("coefficients", None)),
        ("ols", lambda doc: doc["coefficients"].append(0.0)),
        ("ols", lambda doc: doc["coefficients"].__setitem__(0, True)),
        ("ols", lambda doc: doc.__setitem__("covariate_names", "x1")),
        ("lsboost", lambda doc: doc["covariate_names"].append("x2")),
        ("lsboost", lambda doc: doc.__setitem__("covariate_names", [])),
        ("cwr", lambda doc: doc.__setitem__("mode", "foo")),
        ("cwr", lambda doc: doc.__setitem__("bandwidth", "0.5")),
        ("cwr", lambda doc: doc["traces"].__setitem__("rate", {
            "parameter": "rate", "criterion": "loo_rmse",
            "candidates": [0.5], "scores": [1.0], "selected": 0.5,
            "selected_score": 1.0, "n_regularized": [2.7]})),
        ("cwr", lambda doc: doc["training"]["coords"][0].__setitem__(
            0, "1.5")),
        ("cwr", lambda doc: doc["training"]["y"].__setitem__(0, "3")),
        ("cwr", lambda doc: doc["training"]["covariates"][0].__setitem__(
            0, False)),
        ("cwr", lambda doc: doc["standardization"]["stds"].__setitem__(
            0, True)),
        ("cwr", lambda doc: doc["regularized"].__setitem__(0, 7)),
        ("cwr", lambda doc: doc["training"]["ids"].__setitem__(0, 12345)),
        ("cwr", lambda doc: doc["traces"].__setitem__("rate", {
            "parameter": 5, "criterion": 7, "candidates": [0.5],
            "scores": [1.0], "selected": 0.5, "selected_score": 1.0})),
        ("ols", lambda doc: doc["coefficients"].__setitem__(0, "2")),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("max_depth",
                                                             "x")),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("train_mse",
                                                             "abc")),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("feature_names",
                                                             5)),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("trees", {})),
        ("lsboost", lambda doc: doc["ensemble"]["trees"][0].pop("feature")),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("shrinkage",
                                                             -1.0)),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("shrinkage",
                                                             0.0)),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("max_depth",
                                                             -5)),
        ("lsboost", lambda doc: doc["ensemble"].__setitem__("min_leaf", 0)),
    ], ids=["missing-spec", "truncated-coefficients",
            "blended-without-standardization", "traces-not-object",
            "not-json", "model-type-list", "model-type-object",
            "cwr-k-bool", "cwr-attribute-columns-string",
            "ols-coefficients-number", "ols-coefficients-null",
            "ols-coefficients-too-many", "ols-coefficient-bool",
            "ols-names-string", "lsboost-names-too-many",
            "lsboost-names-empty", "cwr-mode-unknown", "cwr-bandwidth-string",
            "cwr-trace-count-float", "cwr-coord-string", "cwr-y-string",
            "cwr-covariate-bool", "cwr-std-bool", "cwr-regularized-7",
            "cwr-id-number", "cwr-trace-names-numbers",
            "ols-coefficient-string", "lsboost-max-depth-string",
            "lsboost-train-mse-string", "lsboost-feature-names-number",
            "lsboost-trees-object", "lsboost-split-without-feature",
            "lsboost-shrinkage-negative", "lsboost-shrinkage-zero",
            "lsboost-max-depth-negative", "lsboost-min-leaf-zero"])
    def test_malformed_model_reports_json_error(self, tmp_path, capsys,
                                                kind, corrupt):
        data, schema = make_dataset(tmp_path, n=40)
        model_path = tmp_path / "m.json"
        assert run_cli(["fit", "--model", kind, "--data", data,
                        "--schema", schema, "--r", 0.5, "--bandwidth", 0.5,
                        "--trees", 5, "--out", model_path]) == 0
        if corrupt is None:
            model_path.write_text("{not json", encoding="utf-8")
        else:
            doc = json.loads(model_path.read_text())
            corrupt(doc)
            model_path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParameterError):
            load_model(model_path)
        query = tmp_path / "q.csv"
        query.write_text("u,v,x1\n10.0,20.0,0.5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["predict", "--model", model_path, "--query", query])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ParameterError"

    @pytest.mark.parametrize("feature", [7, -1, 0.5, "0", True],
                             ids=["out-of-range", "negative", "float",
                                  "string", "bool"])
    def test_tree_feature_outside_model_reports_json_error(
            self, tmp_path, capsys, feature):
        data, schema = make_dataset(tmp_path, n=40)
        model_path = tmp_path / "m.json"
        code = run_cli(["fit", "--model", "lsboost", "--data", data,
                        "--schema", schema, "--trees", 5,
                        "--out", model_path])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["ensemble"]["n_features"] < 7
        root = doc["ensemble"]["trees"][0]
        assert "feature" in root
        root["feature"] = feature
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        query = tmp_path / "q.csv"
        query.write_text("u,v,x1\n10.0,20.0,0.5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["predict", "--model", model_path, "--query", query])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ParameterError"

    @pytest.mark.parametrize("corrupt", [
        lambda ens: ens["trees"][0].__setitem__("threshold", "abc"),
        lambda ens: ens["trees"][0].__setitem__("threshold", None),
        lambda ens: ens["trees"][0]["left"].__setitem__("value", True),
        lambda ens: ens["trees"][0].__setitem__("gain", float("nan")),
        lambda ens: ens.__setitem__("shrinkage", "0.1"),
        lambda ens: ens.__setitem__("f0", float("inf")),
        lambda ens: ens.__setitem__("f0", 10 ** 400),
    ], ids=["threshold-string", "threshold-null", "value-bool", "gain-nan",
            "shrinkage-string", "f0-infinite", "f0-huge-integer"])
    def test_non_numeric_tree_fields_report_json_error(
            self, tmp_path, capsys, corrupt):
        data, schema = make_dataset(tmp_path, n=40)
        model_path = tmp_path / "m.json"
        code = run_cli(["fit", "--model", "lsboost", "--data", data,
                        "--schema", schema, "--trees", 5,
                        "--out", model_path])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert "feature" in doc["ensemble"]["trees"][0]
        corrupt(doc["ensemble"])
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        query = tmp_path / "q.csv"
        query.write_text("u,v,x1\n10.0,20.0,0.5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["predict", "--model", model_path, "--query", query])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ParameterError"

    @pytest.mark.parametrize("schema_doc", [
        {"columns": ["u"]},
        {"columns": 5},
    ], ids=["column-not-object", "columns-not-list"])
    def test_malformed_schema_reports_json_error(self, tmp_path, capsys,
                                                 schema_doc):
        data, _ = make_dataset(tmp_path, n=40)
        schema = tmp_path / "bad_schema.json"
        schema.write_text(json.dumps(schema_doc), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["fit", "--model", "ols", "--data", data,
                        "--schema", schema, "--out", tmp_path / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "SchemaError"

    @pytest.mark.parametrize("case", [
        {"config": [1]},
        {"config": {"seed": "x"}},
        {"config": {"train_fraction": "x"}},
        {"config": {"knn": True}},
        {"config": {"models": 5}},
        {"data": 5},
        None,
    ], ids=["config-not-object", "string-seed", "string-train-fraction",
            "bool-knn", "models-not-list", "data-not-path", "case-not-object"])
    def test_malformed_manifest_reports_json_error(self, tmp_path, capsys,
                                                   case):
        data, schema = make_dataset(tmp_path, n=40)
        good = {"name": "a", "data": data.name, "schema": schema.name}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"cases": [
            5 if case is None else {**good, **case}]}), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["compare", "--manifest", path, "--models", "ols"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ParameterError"

    def test_manifest_not_object_reports_json_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[1]", encoding="utf-8")
        code = run_cli(["compare", "--manifest", path])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("route", [
        "compare-flag", "manifest-case", "synth-config", "synth-flag"])
    def test_negative_seed_reports_json_error(self, tmp_path, capsys, route):
        data, schema = make_dataset(tmp_path, n=40)
        path = tmp_path / "settings.json"
        if route == "compare-flag":
            argv = ["compare", "--data", data, "--schema", schema,
                    "--models", "ols", "--seed", -1]
        elif route == "manifest-case":
            path.write_text(json.dumps({"cases": [
                {"name": "a", "data": data.name, "schema": schema.name,
                 "config": {"seed": -1}}]}), encoding="utf-8")
            argv = ["compare", "--manifest", path, "--models", "ols"]
        elif route == "synth-config":
            path.write_text(json.dumps({"seed": -1}), encoding="utf-8")
            argv = ["synth", "--config", path, "--out", tmp_path / "s.csv"]
        else:
            argv = ["synth", "--seed", -1, "--out", tmp_path / "s.csv"]
        capsys.readouterr()
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err) == {
            "error": "ParameterError",
            "message": "seed must be a non-negative integer, got -1"}

    @pytest.mark.parametrize("config", [
        [1], "geo", {"n": "x"}, {"n": True}, {"n": 0}, {"n": 50.0},
        {"regime": 5}, {"sigma": "x"}, {"sigma": True}, {"params": 5},
        {"params": [1]}, {"seed": "x"}, {"seed": 2.0},
        {"params": {"extent": "x"}}, {"params": {"extent": True}},
        {"params": {"extent": float("inf")}},
        {"regime": "mixed", "params": {"mix": "x"}},
        {"regime": "attr", "params": {"cluster_centers": [1]}},
        {"regime": "attr", "params": {"cluster_centers": 1}},
        {"regime": "attr", "params": {"cluster_sd": [1, 2]}},
        {"regime": "hedonic", "params": {"bogus": 1}},
        {"regime": "attr", "params": {"cluster_sd": -1}},
        {"params": {"extent": 0}},
        {"params": {"extent": 1e308}},
        {"regime": "attr", "params": {"cluster_sd": 1e308}},
        {"regime": "hedonic", "sigma": -1}, {"sigma": float("nan")},
        {"n": 10 ** 400}, {"params": {"extent": 10 ** 400}},
    ], ids=["list", "string", "string-n", "bool-n", "zero-n", "float-n",
            "int-regime", "string-sigma", "bool-sigma", "int-params",
            "list-params", "string-seed", "float-seed", "string-extent",
            "bool-extent", "inf-extent", "string-mix", "short-pair",
            "number-for-pair", "pair-for-number", "hedonic-params",
            "negative-cluster-sd", "zero-extent", "overflowing-extent",
            "overflowing-cluster-sd", "hedonic-negative-sigma", "nan-sigma",
            "huge-integer-n", "huge-integer-extent"])
    def test_malformed_synth_config_reports_json_error(self, tmp_path,
                                                       capsys, config):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "s.csv"
        assert run_cli(["synth", "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ParameterError"
        assert not out.exists()

    @pytest.mark.parametrize("regime, sigma", [
        ("geo", None), ("hedonic", None), ("attr", 2)])
    def test_synth_config_sigma(self, tmp_path, capsys, regime, sigma):
        # A null sigma is the generator's default noise level.
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"regime": regime, "n": 20, "seed": 4,
                                    "sigma": sigma}), encoding="utf-8")
        assert run_cli(["synth", "--config", path,
                        "--out", tmp_path / "a.csv"]) == 0
        expected = {"geo": 1.0, "hedonic": 10.0}.get(regime, sigma)
        assert run_cli(["synth", "--regime", regime, "--n", 20, "--seed", 4,
                        "--sigma", expected, "--out", tmp_path / "b.csv"]) == 0
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

    @pytest.mark.parametrize("kind", ["ols", "lsboost", "cwr"])
    def test_load_model_refuses_other_versions(self, tmp_path, kind):
        data, schema = make_dataset(tmp_path, n=40)
        path = tmp_path / f"{kind}.json"
        code = run_cli(["fit", "--model", kind, "--data", data,
                        "--schema", schema, "--trees", 10, "--r", 0.5,
                        "--bandwidth", 0.5, "--out", path])
        assert code == 0
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParameterError):
            load_model(path)

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["transmogrify"])
        assert excinfo.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"

    def test_module_entry_point(self, tmp_path):
        # `python3 -m cwreg.cli` must behave like the console script.
        # The child finds the package where this process imported it.
        src = os.path.dirname(os.path.dirname(cwreg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "d.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "cwreg.cli", "synth", "--regime", "geo",
             "--n", "20", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert out.exists()


# Replacements for one node of a JSON input, and for one cell of a CSV
# input. None of them is a size that would allocate much memory.
FUZZ_VALUES = [None, True, 0, -1, 0.5, 1e308, float("nan"), float("inf"),
               10 ** 400, "x", "0.5", "", [], {}, [0.5, "x"], {"x": 1}]
FUZZ_CELLS = ["", "x", "nan", "inf", "-1", "0", "1e308", "1e400", "a,b", '"']


@st.composite
def mutated_json(draw, doc):
    """`doc` with one node below the root replaced or deleted. A walk
    from the root picks it; the walk may stop at any container."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) \
                or draw(st.integers(0, 3)) == 0:
            break
        node = child
    value = draw(st.sampled_from(["<delete>", *FUZZ_VALUES]))
    if value == "<delete>":
        del node[key]
    else:
        node[key] = value
    return json.dumps(doc)


@st.composite
def mutated_csv(draw, text):
    """`text` with one row deleted, or one cell replaced or deleted; the
    header is the row in one draw out of three."""
    rows = list(csv.reader(io.StringIO(text)))
    i = 0 if draw(st.integers(0, 2)) == 0 \
        else draw(st.integers(1, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    action = draw(st.sampled_from(["<delete row>", "<delete cell>",
                                   *FUZZ_CELLS]))
    if action == "<delete row>":
        del rows[i]
    elif action == "<delete cell>":
        del rows[i][j]
    else:
        rows[i][j] = action
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a valid input file of every kind."""
    d = tmp_path_factory.mktemp("fuzz")
    argv = [["synth", "--regime", "attr", "--n", 12, "--sigma", 0.5,
             "--seed", 1, "--out", d / "data.csv",
             "--schema-out", d / "schema.json"]]
    flags = {"ols": [], "lsboost": ["--trees", 3, "--min-leaf", 2],
             "cwr": ["--r", 0.5],
             "gwr": ["--bandwidth", 0.5, "--predict-mode", "local-fit"]}
    for name, extra in flags.items():
        argv.append(["fit", "--model", name, "--data", d / "data.csv",
                     "--schema", d / "schema.json", *extra,
                     "--out", d / f"{name}.json"])
    with redirect_stdout(io.StringIO()):
        assert all(run_cli(a) == 0 for a in argv)
    (d / "query.csv").write_text("id,u,v,x1\nq1,100,200,1.5\nq2,800,300,-2\n",
                                 encoding="utf-8")
    (d / "manifest.json").write_text(json.dumps({"cases": [
        {"name": "a", "data": "data.csv", "schema": "schema.json",
         "config": {"seed": 1, "knn": 2, "train_fraction": 0.7}}]}),
        encoding="utf-8")
    (d / "synth.json").write_text(json.dumps({
        "regime": "mixed", "n": 20, "sigma": 0.5, "seed": 1,
        "params": {"extent": 500.0, "cluster_centers": [-1.0, 1.0],
                   "mix": 0.3}}), encoding="utf-8")
    return d


def fuzz_commands(d, kind, path):
    """The commands that read the `kind` input, given as `path`."""
    data = ["--data", d / "data.csv", "--schema", d / "schema.json"]
    fit = ["fit", "--model", "cwr", "--r", 0.5, "--bandwidth", 0.5,
           "--out", d / "out.json"]
    if kind in ("ols", "lsboost", "cwr", "gwr"):
        return [["predict", "--model", path, "--query", d / "query.csv"],
                ["map", "--model", path, *data, "--nx", 2, "--ny", 2,
                 "--out-prefix", d / "map"]]
    return {"data": [[*fit, "--data", path, "--schema", d / "schema.json"],
                     ["importance", "--data", path,
                      "--schema", d / "schema.json", "--trees", 3]],
            "schema": [[*fit, "--data", d / "data.csv", "--schema", path]],
            "query": [["predict", "--model", d / "cwr.json", "--query", path]],
            "manifest": [["compare", "--manifest", path,
                          "--models", "ols,lsboost", "--trees", 3]],
            "synth": [["synth", "--config", path, "--out", d / "s.csv"]],
            }[kind]


def gives_back(loaded, saved) -> bool:
    """Whether the document `saved` gives back `loaded`: the same values
    of the same types, except that an int may come back as a float and
    a key missing from `loaded` may come back with its default."""
    if isinstance(loaded, dict):
        return (isinstance(saved, dict) and loaded.keys() <= saved.keys()
                and all(gives_back(v, saved[k]) for k, v in loaded.items()))
    if isinstance(loaded, list):
        return (isinstance(saved, list) and len(loaded) == len(saved)
                and all(map(gives_back, loaded, saved)))
    return loaded == saved and (type(loaded) is type(saved)
                                or (type(loaded), type(saved)) == (int, float))


def meets_value_rules(model) -> bool:
    """Whether a loaded model keeps the value rules, written out here
    apart from the program's checks: boosting settings in range; k and
    the prediction mode; finite, positive bandwidth and scales; a
    standardization wherever r < 1; and search traces whose selection
    is a candidate with its score, and is the model's r or bandwidth."""
    if hasattr(model, "ensemble"):
        ens = model.ensemble
        return (0 < ens.shrinkage <= 1 and ens.max_depth >= 1
                and ens.min_leaf >= 1)
    if not hasattr(model, "fit"):
        return True  # an OLS model has no ranged setting
    fit = model.fit
    scales = (fit.bandwidth, fit.geo_scale, fit.attr_scale)
    for trace in model.traces.values():
        if trace.parameter == "rate":
            tied = (trace.selected == fit.spec.r
                    and trace.selected_bandwidth == fit.bandwidth)
        else:
            tied = (trace.parameter == "bandwidth"
                    and trace.selected == fit.bandwidth)
        if not (tied and any(c == trace.selected and s == trace.selected_score
                             for c, s in zip(trace.candidates, trace.scores))):
            return False
    return (model.mode in ("knn-coef", "local-fit")
            and type(model.k) is int and 1 <= model.k <= model.table.n
            and all(math.isfinite(x) and x > 0 for x in scales)
            and (fit.spec.r == 1 or fit.transform is not None))


@pytest.mark.parametrize("kind", [numbers.Real, numbers.Integral])
def test_number_reader_agrees_with_finite_number(kind):
    # _numbers checks list cells by their types, then in one isfinite
    # pass; it must accept exactly the cells _finite_number accepts.
    for value in FUZZ_VALUES:
        for shape, doc in (((), value), ((1,), [value]), ((2,), [1, value]),
                           ((1, 1), [[value]])):
            try:
                _numbers(doc, "cell", shape, kind)
            except ParameterError:
                accepted = False
            else:
                accepted = True
            assert accepted == _finite_number(value, kind), (value, shape)


FUZZ_FILES = {"ols": "ols.json", "lsboost": "lsboost.json",
              "cwr": "cwr.json", "gwr": "gwr.json", "data": "data.csv",
              "schema": "schema.json", "query": "query.csv",
              "manifest": "manifest.json", "synth": "synth.json"}


@pytest.mark.parametrize("kind", list(FUZZ_FILES))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(draw=st.data())
def test_mutated_input_exits_cleanly(fuzz_inputs, kind, draw):
    # A valid input with one node or cell mutated: each command that
    # reads it exits 0, or exits 1 with the JSON error as its last
    # stderr line, after nothing but the ingestion report. None raises.
    name = FUZZ_FILES[kind]
    text = (fuzz_inputs / name).read_text(encoding="utf-8")
    mutated = draw.draw(mutated_csv(text) if name.endswith(".csv")
                        else mutated_json(json.loads(text)))
    path = fuzz_inputs / f"mutated_{name}"
    path.write_text(mutated, encoding="utf-8")
    if kind in ("ols", "lsboost", "cwr", "gwr"):
        # What loads keeps the value rules, and saves back as the
        # document it was loaded from.
        try:
            model = load_model(path)
        except ParameterError:
            pass
        else:
            assert meets_value_rules(model)
            save_model(model, fuzz_inputs / "saved.json")
            saved = (fuzz_inputs / "saved.json").read_text(encoding="utf-8")
            assert gives_back(json.loads(mutated), json.loads(saved))
    for argv in fuzz_commands(fuzz_inputs, kind, path):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run_cli(argv)
        assert code in (0, 1), argv
        if code == 1:
            *report, last = err.getvalue().splitlines()
            assert set(json.loads(last)) == {"error", "message"}
            assert all(line.startswith(("ingestion: ", "  line "))
                       for line in report)
