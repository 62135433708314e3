"""Model comparison harness, metrics, and map/residual export.

run_comparison drives the full pipeline on one dataset: optional
factor selection, seeded train/test split, then each requested model
trained on the training set and scored by test RMSE. Failures are
recorded per model so one broken fit never takes down the rest of the
run. Reports serialize to JSON deterministically: two runs with the
same data and config produce byte-identical files (wall-clock
runtimes are therefore kept in memory only and never serialized).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import (
    ObservationTable,
    SplitSpec,
    _finite_array,
    _finite_number,
    _numbers,
    _write_rows,
    load_csv,
    load_schema,
    split,
)
from .ensemble import fit_lsboost, predictor_importance, select_factors
from .errors import (
    CwregError,
    DimensionError,
    ParameterError,
    UndefinedImprovementError,
)
from .local import fit_cwr
from .models import LsboostModel, OlsModel
from .wls import design_matrix, fit_ols

REPORT_FORMAT = "cwreg-comparison"
REPORT_FORMAT_VERSION = 1

MODEL_NAMES = ("ols", "gwr", "cwr", "lsboost")


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    a = _finite_array(actual, "actual", (None,))
    p = _finite_array(predicted, "predicted", (len(a),))
    if a.shape[0] == 0:
        raise DimensionError("rmse needs at least one record")
    return float(np.sqrt(np.mean((a - p) ** 2)))


def improvement_pct(baseline_rmse: float, model_rmse: float) -> float:
    """Percent RMSE reduction relative to a baseline.

    (baseline - model) / baseline * 100; negative when the model is
    worse. Undefined for a non-positive baseline.
    """
    if baseline_rmse <= 0 or not np.isfinite(baseline_rmse):
        raise UndefinedImprovementError(
            f"improvement is undefined for baseline RMSE {baseline_rmse}"
        )
    return (baseline_rmse - model_rmse) / baseline_rmse * 100.0


@dataclass(frozen=True)
class ComparisonConfig:
    """Everything run_comparison needs beyond the data itself."""

    models: tuple[str, ...] = MODEL_NAMES
    seed: int = 0
    train_fraction: float = 0.8
    r: float | str = "search"
    bandwidth: float | str = "cv"
    knn: int = 3
    predict_mode: str = "knn-coef"
    scoring: str = "loo"
    normalization: str = "max-scale"
    r_grid: tuple[float, ...] | None = None
    bandwidth_grid_size: int = 20
    attribute_columns: tuple[str, ...] | None = None
    select_top_k: int | None = None
    boost_trees: int = 100
    boost_shrinkage: float = 0.1
    boost_max_depth: int = 3
    boost_min_leaf: int = 5

    def __post_init__(self):
        try:
            object.__setattr__(self, "models", tuple(self.models))
            if self.attribute_columns is not None:
                object.__setattr__(self, "attribute_columns",
                                   tuple(self.attribute_columns))
            if self.r_grid is not None:  # numbers, not bools, as r takes
                object.__setattr__(self, "r_grid", tuple(_numbers(list(
                    self.r_grid), "config r_grid", (len(self.r_grid),)).tolist()))
        except (TypeError, ValueError) as err:
            raise ParameterError(f"malformed config: {err}") from err
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise ParameterError(
                f"unknown models {unknown}, expected among {MODEL_NAMES}"
            )
        if not self.models:
            raise ParameterError("at least one model is required")
        # Numeric fields, found by annotation, hold finite numbers of
        # their kind.
        for f in fields(self):
            value, kinds = getattr(self, f.name), f.type.split(" | ")
            number = (numbers.Integral if "int" in kinds
                      else numbers.Real if "float" in kinds else None)
            if (number is None or (value is None and "None" in kinds)
                    or (isinstance(value, str) and "str" in kinds)):
                continue
            if not _finite_number(value, number):
                raise ParameterError(
                    f"config {f.name} must be a finite {f.type}, "
                    f"got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ComparisonConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class ModelResult:
    """Outcome of one model inside a comparison run."""

    name: str
    rmse: float | None = None
    params: dict = field(default_factory=dict)
    predictions: np.ndarray | None = None
    runtime: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ComparisonReport:
    """Per-model RMSEs, pairwise improvements, per-record residuals."""

    config: ComparisonConfig
    n_total: int
    n_train: int
    n_test: int
    selected_factors: list[str] | None
    results: dict[str, ModelResult]
    improvements: dict[str, dict[str, float | None]]
    test_ids: list[str]
    test_coords: np.ndarray
    test_actual: np.ndarray

    def to_dict(self) -> dict:
        models = {}
        residuals = {}
        for name, res in self.results.items():
            models[name] = {
                "rmse": res.rmse,
                "params": res.params,
                "error": res.error,
            }
            if res.ok and res.predictions is not None:
                rows = []
                for i, rid in enumerate(self.test_ids):
                    predicted = float(res.predictions[i])
                    actual = float(self.test_actual[i])
                    rows.append({
                        "id": rid,
                        "u": float(self.test_coords[i, 0]),
                        "v": float(self.test_coords[i, 1]),
                        "actual": actual,
                        "predicted": predicted,
                        "residual": actual - predicted,
                    })
                residuals[name] = rows
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "n_total": self.n_total,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "selected_factors": self.selected_factors,
            "models": models,
            "improvements": self.improvements,
            "residuals": residuals,
        }


def fit_boosted(table: ObservationTable, config: ComparisonConfig):
    """The configured boosted trees on every covariate of `table`."""
    return fit_lsboost(
        table.covariates, table.y,
        n_trees=config.boost_trees,
        shrinkage=config.boost_shrinkage,
        max_depth=config.boost_max_depth,
        min_leaf=config.boost_min_leaf,
        feature_names=table.covariate_names,
    )


def fit_model(name: str, train: ObservationTable, config: ComparisonConfig):
    """Train one named model; returns (model, params dict for the report)."""
    if name == "ols":
        beta = fit_ols(design_matrix(train.covariates), train.y)
        return OlsModel(coefficients=beta,
                        covariate_names=list(train.covariate_names)), {}
    if name == "lsboost":
        model = LsboostModel(ensemble=fit_boosted(train, config),
                             covariate_names=list(train.covariate_names))
        return model, {
            "trees": config.boost_trees,
            "shrinkage": config.boost_shrinkage,
            "max_depth": config.boost_max_depth,
            "min_leaf": config.boost_min_leaf,
        }
    if name in ("gwr", "cwr"):
        r = 1.0 if name == "gwr" else config.r
        model = fit_cwr(
            train,
            attribute_columns=config.attribute_columns,
            r=r,
            bandwidth=config.bandwidth,
            k=config.knn,
            mode=config.predict_mode,
            scoring=config.scoring,
            normalization=config.normalization,
            r_grid=config.r_grid,
            bandwidth_grid_size=config.bandwidth_grid_size,
            name=name,
        )
        return model, {
            "r": model.fit.spec.r,
            "bandwidth": model.fit.bandwidth,
            "k": model.k,
            "mode": model.mode,
        }
    raise ParameterError(f"unknown model {name!r}")


def run_comparison(table: ObservationTable,
                   config: ComparisonConfig | None = None) -> ComparisonReport:
    """Run the full pipeline on one dataset.

    Optional factor selection first (importance over the whole table,
    keep the top k covariates), then the seeded split, then every
    requested model in order. A model that raises a toolkit error is
    recorded with its message; the others still run.
    """
    config = config if config is not None else ComparisonConfig()
    selected = None
    if config.select_top_k is not None:
        selected = select_factors(predictor_importance(fit_boosted(table, config)),
                                  config.select_top_k)
        table = table.with_covariates(selected)
    train, test = split(table, SplitSpec(train_fraction=config.train_fraction,
                                         seed=config.seed))
    results: dict[str, ModelResult] = {}
    for name in config.models:
        start = time.perf_counter()
        try:
            model, params = fit_model(name, train, config)
            predictions = model.predict_table(test)
            results[name] = ModelResult(
                name=name,
                rmse=rmse(test.y, predictions),
                params=params,
                predictions=predictions,
                runtime=time.perf_counter() - start,
            )
        except CwregError as err:
            results[name] = ModelResult(
                name=name,
                runtime=time.perf_counter() - start,
                error=f"{type(err).__name__}: {err}",
            )
    improvements: dict[str, dict[str, float | None]] = {}
    succeeded = [n for n in config.models if results[n].ok]
    for a in succeeded:
        improvements[a] = {}
        for b in succeeded:
            if a == b:
                continue
            base = results[b].rmse
            improvements[a][b] = (improvement_pct(base, results[a].rmse)
                                  if base > 0 else None)
    return ComparisonReport(
        config=config,
        n_total=table.n,
        n_train=train.n,
        n_test=test.n,
        selected_factors=selected,
        results=results,
        improvements=improvements,
        test_ids=list(test.ids),
        test_coords=test.coords,
        test_actual=test.y,
    )


def run_batch(manifest: dict, base_config: ComparisonConfig | None = None,
              base_dir=None) -> dict:
    """Run named comparison cases from a manifest.

    Manifest shape: {"cases": [{"name", "data", "schema"?, "config"?}]}
    where per-case config entries override the base config. Returns a
    summary keyed by case with per-model RMSEs and improvements, the
    same shape for every case.
    """
    import os

    if not (isinstance(manifest, dict) and manifest.get("cases")
            and isinstance(manifest["cases"], list)):
        raise ParameterError('manifest needs a non-empty "cases" list')
    base_config = base_config if base_config is not None else ComparisonConfig()
    base_dir = base_dir or "."
    cases_out = []
    for case in manifest["cases"]:
        if not (isinstance(case, dict) and "name" in case
                and isinstance(case.get("data"), str)
                and isinstance(case.get("schema") or "", str)
                and isinstance(case.get("config") or {}, dict)):
            raise ParameterError('each case needs a "name" and a "data" path; '
                                 '"schema" is a path, "config" an object')
        # Settings like "seed" or "models" belong inside "config";
        # refuse stray keys instead of silently running the defaults.
        unknown = sorted(set(case) - {"name", "data", "schema", "config"})
        if unknown:
            raise ParameterError(
                f'case "{case["name"]}" has unknown keys {unknown}; '
                'per-case settings go under "config"')
        schema = None
        if case.get("schema"):
            schema = load_schema(os.path.join(base_dir, case["schema"]))
        table, _ = load_csv(os.path.join(base_dir, case["data"]), schema)
        config = base_config
        if case.get("config"):
            config = ComparisonConfig.from_dict(
                {**base_config.to_dict(), **case["config"]})
        report = run_comparison(table, config)
        doc = report.to_dict()
        cases_out.append({
            "name": case["name"],
            "n_total": doc["n_total"],
            "n_train": doc["n_train"],
            "n_test": doc["n_test"],
            "models": {m: doc["models"][m]["rmse"] for m in doc["models"]},
            "params": {m: doc["models"][m]["params"] for m in doc["models"]},
            "errors": {m: doc["models"][m]["error"] for m in doc["models"]
                       if doc["models"][m]["error"]},
            "improvements": doc["improvements"],
        })
    return {
        "format": "cwreg-batch",
        "version": REPORT_FORMAT_VERSION,
        "config": base_config.to_dict(),
        "cases": cases_out,
    }


@dataclass
class GridExport:
    """Paths and contents of one map export."""

    grid_path: str
    residual_path: str
    grid_coords: np.ndarray
    grid_predictions: np.ndarray
    n_residuals: int


def export_maps(model, table: ObservationTable, lattice, out_prefix,
                covariate_values: dict | None = None) -> GridExport:
    """Write a prediction-grid CSV and a per-record residual CSV.

    The lattice is (nx, ny) points spanning the bounding box of the
    training coordinates (taken from the model's embedded training
    table when it has one, else from `table`). Grid queries use each
    covariate's training median unless overridden through
    covariate_values. Residual rows cover `table` one to one.
    """
    nx, ny = int(lattice[0]), int(lattice[1])
    if nx < 1 or ny < 1:
        raise ParameterError(f"lattice counts must be >= 1, got {(nx, ny)}")
    source = getattr(model, "table", None) or table
    names = list(model.covariate_names)
    base = source.covariate_matrix(names)
    values = np.median(base, axis=0)
    if covariate_values:
        unknown = set(covariate_values) - set(names)
        if unknown:
            raise ParameterError(f"unknown covariates: {sorted(unknown)}")
        for j, name in enumerate(names):
            if name in covariate_values:
                values[j] = float(covariate_values[name])
    us = np.linspace(source.coords[:, 0].min(), source.coords[:, 0].max(), nx)
    vs = np.linspace(source.coords[:, 1].min(), source.coords[:, 1].max(), ny)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    grid_coords = np.column_stack([uu.ravel(), vv.ravel()])
    grid_covs = np.tile(values, (grid_coords.shape[0], 1))
    grid_pred = model.predict(grid_coords, grid_covs)

    grid_path = f"{out_prefix}_grid.csv"
    _write_rows(grid_path, ["u", "v"] + names + ["predicted"],
                ([*grid_coords[i], *values, grid_pred[i]]
                 for i in range(grid_coords.shape[0])))

    predictions = model.predict(table.coords, table.covariate_matrix(names))
    residual_path = f"{out_prefix}_residuals.csv"
    _write_rows(residual_path,
                ["id", "u", "v", "actual", "predicted", "residual"],
                ([table.ids[i], *table.coords[i], table.y[i], predictions[i],
                  table.y[i] - predictions[i]] for i in range(table.n)))
    return GridExport(
        grid_path=grid_path,
        residual_path=residual_path,
        grid_coords=grid_coords,
        grid_predictions=grid_pred,
        n_residuals=table.n,
    )
