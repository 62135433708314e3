"""Spatial regression with blended geographic/attribute kernel weights.

The core model generalizes geographically weighted regression: kernel
weights decay with r * geographic_distance + (1 - r) * attribute_distance,
so r = 1 recovers GWR and r < 1 lets attribute similarity share the
weighting. The package also ships an OLS baseline, least-squares
boosted trees with split-gain predictor importance, synthetic data
generators, and a comparison harness with a CLI.
"""

from .data import (
    DEFAULT_SCHEMA,
    IngestionReport,
    ObservationTable,
    SplitSpec,
    StandardizationTransform,
    SyntheticTruth,
    generate_hedonic,
    generate_synthetic,
    load_csv,
    load_schema,
    split,
    standardize,
    tables_equal,
    write_csv,
)
from .distances import (
    DistanceSpec,
    attribute_distances,
    blend_distances,
    gaussian_weights,
    geographic_distances,
    training_scale,
)
from .ensemble import (
    BoostedEnsemble,
    ImportanceReport,
    TreeNode,
    fit_lsboost,
    fit_tree,
    predictor_importance,
    select_factors,
)
from .errors import (
    CwregError,
    DegenerateWeightsError,
    DimensionError,
    IngestionError,
    ParameterError,
    SchemaError,
    SearchFailureError,
    SingularFitError,
    UndefinedImprovementError,
)
from .evaluate import (
    ComparisonConfig,
    ComparisonReport,
    export_maps,
    improvement_pct,
    rmse,
    run_batch,
    run_comparison,
)
from .local import (
    FittedCwr,
    HyperSearchTrace,
    LocalFit,
    fit_cwr,
    fit_local,
    predict_at,
    select_rate,
)
from .models import LsboostModel, OlsModel, load_model, save_model
from .wls import design_matrix, fit_ols, predict, solve_wls, solve_wls_batched

__version__ = "0.1.0"

__all__ = [
    "BoostedEnsemble",
    "ComparisonConfig",
    "ComparisonReport",
    "CwregError",
    "DEFAULT_SCHEMA",
    "DegenerateWeightsError",
    "DimensionError",
    "DistanceSpec",
    "FittedCwr",
    "HyperSearchTrace",
    "ImportanceReport",
    "IngestionError",
    "IngestionReport",
    "LocalFit",
    "LsboostModel",
    "ObservationTable",
    "OlsModel",
    "ParameterError",
    "SchemaError",
    "SearchFailureError",
    "SingularFitError",
    "SplitSpec",
    "StandardizationTransform",
    "SyntheticTruth",
    "TreeNode",
    "UndefinedImprovementError",
    "attribute_distances",
    "blend_distances",
    "design_matrix",
    "export_maps",
    "fit_cwr",
    "fit_local",
    "fit_lsboost",
    "fit_ols",
    "fit_tree",
    "gaussian_weights",
    "generate_hedonic",
    "generate_synthetic",
    "geographic_distances",
    "improvement_pct",
    "load_csv",
    "load_model",
    "load_schema",
    "predict",
    "predict_at",
    "predictor_importance",
    "rmse",
    "run_batch",
    "run_comparison",
    "save_model",
    "select_factors",
    "select_rate",
    "solve_wls",
    "solve_wls_batched",
    "split",
    "standardize",
    "tables_equal",
    "training_scale",
    "write_csv",
]
