"""Spatial regression with blended geographic/attribute kernel weights.

The core model generalizes geographically weighted regression: kernel
weights decay with r * geographic_distance + (1 - r) * attribute_distance,
so r = 1 recovers GWR and r < 1 lets attribute similarity share the
weighting. The package also ships an OLS baseline, least-squares
boosted trees with split-gain predictor importance, synthetic data
generators, and a comparison harness with a CLI.

Helpers such as predict_at or solve_wls_batched are imported from
their own modules (cwreg.local, cwreg.wls, ...).
"""

from .data import (
    ObservationTable,
    SplitSpec,
    generate_hedonic,
    generate_synthetic,
    load_csv,
    load_schema,
    split,
    write_csv,
)
from .distances import DistanceSpec
from .ensemble import fit_lsboost, predictor_importance, select_factors
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
    improvement_pct,
    rmse,
    run_comparison,
)
from .local import FittedCwr, fit_cwr
from .models import LsboostModel, OlsModel, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    # workflow
    "fit_cwr",
    "FittedCwr",
    "DistanceSpec",
    "save_model",
    "load_model",
    "OlsModel",
    "LsboostModel",
    # data
    "ObservationTable",
    "load_csv",
    "load_schema",
    "write_csv",
    "split",
    "SplitSpec",
    "generate_synthetic",
    "generate_hedonic",
    # comparison
    "run_comparison",
    "ComparisonConfig",
    "ComparisonReport",
    "rmse",
    "improvement_pct",
    # factor selection
    "fit_lsboost",
    "predictor_importance",
    "select_factors",
    # errors
    "CwregError",
    "DegenerateWeightsError",
    "DimensionError",
    "IngestionError",
    "ParameterError",
    "SchemaError",
    "SearchFailureError",
    "SingularFitError",
    "UndefinedImprovementError",
]
