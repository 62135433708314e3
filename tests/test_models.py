"""Model files: what save_model writes, load_model reads back."""

import pytest

from cwreg.evaluate import ComparisonConfig, fit_model
from cwreg.models import load_model, save_model

from conftest import random_table


@pytest.mark.parametrize("name, config", [
    ("ols", {}),
    ("lsboost", {"boost_trees": 5}),
    ("cwr", {"r_grid": (0.0, 0.5, 1.0), "bandwidth_grid_size": 4}),
    ("gwr", {"predict_mode": "local-fit", "bandwidth_grid_size": 4}),
])
def test_saving_a_loaded_model_gives_the_same_bytes(tmp_path, name, config):
    model, _ = fit_model(name, random_table(n=30, p=2, seed=80),
                         ComparisonConfig(**config))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
