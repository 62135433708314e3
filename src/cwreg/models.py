"""Thin model wrappers sharing one predict/save/load interface.

Every model exposes predict(coords, covariates) where covariates are
raw values in the model's own column order, and serializes to a JSON
document tagged with "model_type" so files can be loaded without
knowing what they contain. Only save_model and load_model write and
read model files; they add and check the format and version header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _names, _numbers, read_json, write_json
from .ensemble import BoostedEnsemble
from .errors import ParameterError
from .local import FittedCwr, _query
from .wls import design_matrix, predict as linear_predict

MODEL_FORMAT = "cwreg-model"
MODEL_FORMAT_VERSION = 1


@dataclass
class OlsModel:
    """Global linear baseline: one coefficient vector for everyone."""

    coefficients: np.ndarray
    covariate_names: list[str]
    name: str = "ols"

    def predict(self, coords, covariates) -> np.ndarray:
        _, covariates = _query(coords, covariates, self.covariate_names)
        return linear_predict(design_matrix(covariates), self.coefficients)

    def predict_table(self, table) -> np.ndarray:
        return self.predict(table.coords,
                            table.covariate_matrix(self.covariate_names))

    def to_dict(self) -> dict:
        return {
            "model_type": "ols",
            "coefficients": self.coefficients.tolist(),
            "covariate_names": list(self.covariate_names),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "OlsModel":
        names = _names(doc["covariate_names"], "covariate_names")
        return cls(coefficients=_numbers(doc["coefficients"], "coefficients",
                                         (len(names) + 1,)),
                   covariate_names=names)


@dataclass
class LsboostModel:
    """Boosted-tree model plus the covariate order it was trained on."""

    ensemble: BoostedEnsemble
    covariate_names: list[str]
    name: str = "lsboost"

    def predict(self, coords, covariates) -> np.ndarray:
        _, covariates = _query(coords, covariates, self.covariate_names)
        return self.ensemble.predict(covariates)

    def predict_table(self, table) -> np.ndarray:
        return self.predict(table.coords,
                            table.covariate_matrix(self.covariate_names))

    def to_dict(self) -> dict:
        return {
            "model_type": "lsboost",
            "covariate_names": list(self.covariate_names),
            "ensemble": self.ensemble.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LsboostModel":
        ensemble = BoostedEnsemble.from_dict(doc["ensemble"])
        names = _names(doc["covariate_names"], "covariate_names")
        if len(names) != ensemble.n_features:
            raise ParameterError(f"{len(names)} covariate names for "
                                 f"{ensemble.n_features} ensemble features")
        return cls(ensemble=ensemble, covariate_names=names)


def save_model(model, path) -> None:
    write_json({"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION,
                **model.to_dict()}, path)


def load_model(path):
    """Load any saved model; dispatches on its model_type tag."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ParameterError(f"{path}: not a {MODEL_FORMAT} document")
    version = doc.get("version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ParameterError(f"{path}: unsupported model version {version!r}")
    kind = doc.get("model_type")
    classes = {"cwr": FittedCwr, "gwr": FittedCwr, "ols": OlsModel,
               "lsboost": LsboostModel}
    model_class = classes.get(kind) if isinstance(kind, str) else None
    if model_class is None:
        raise ParameterError(f"{path}: unknown model_type {kind!r}")
    try:
        return model_class.from_dict(doc)
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as err:
        raise ParameterError(f"{path}: malformed {kind} model: "
                             f"{type(err).__name__}: {err}") from err
