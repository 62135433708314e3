"""The top-level cwreg namespace is the documented workflow surface."""

import cwreg

SURFACE = [
    # workflow
    "fit_cwr", "FittedCwr", "DistanceSpec", "save_model", "load_model",
    "OlsModel", "LsboostModel",
    # data
    "ObservationTable", "load_csv", "load_schema", "write_csv", "split",
    "SplitSpec", "generate_synthetic", "generate_hedonic",
    # comparison
    "run_comparison", "ComparisonConfig", "ComparisonReport", "rmse",
    "improvement_pct",
    # factor selection
    "fit_lsboost", "predictor_importance", "select_factors",
    # errors
    "CwregError", "DimensionError", "ParameterError", "SingularFitError",
    "DegenerateWeightsError", "SearchFailureError", "SchemaError",
    "IngestionError", "UndefinedImprovementError",
]


def test_all_is_the_documented_surface():
    assert sorted(cwreg.__all__) == sorted(SURFACE)
    assert len(set(cwreg.__all__)) == len(cwreg.__all__)


def test_every_name_resolves():
    for name in cwreg.__all__:
        assert hasattr(cwreg, name), name
