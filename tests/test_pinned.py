"""Pinned selections: the numbers the hyperparameter search must keep.

The selected blend ratio r, bandwidth h and score of the default search
and of a hedonic comparison, as the code produced them before the
batched solver solved through its Cholesky factor. r must match
exactly, h to 10 significant digits and each score to 1e-12 relative,
so a change that moves a selection shows here.
"""

import json

import pytest

from cwreg.cli import main
from cwreg.data import SplitSpec, generate_synthetic, split
from cwreg.local import fit_cwr

SCORE_RTOL = 1e-12


@pytest.mark.parametrize("seed, r, h, score", [
    (1, 0.03, "0.1019896816", 2.2567054517136587),
    (2, 0.01, "0.1189478625", 2.1916514113418555),
    (3, 0.21, "0.07635673202", 2.139110058979009),
])
def test_default_search_selection(seed, r, h, score):
    table, _ = generate_synthetic("attr", n=200, sigma=2.0, seed=seed)
    train, _ = split(table, SplitSpec(train_fraction=0.8, seed=seed))
    model = fit_cwr(train)
    trace = model.traces["rate"]
    assert model.fit.spec.r == r
    assert f"{model.fit.bandwidth:.10g}" == h
    assert trace.selected_score == pytest.approx(score, rel=SCORE_RTOL,
                                                 abs=0)


@pytest.mark.parametrize("seed, h, rmse", [
    (1, "0.2190301182", 1.4721372520159333),
    (2, "0.1672234323", 1.685086059076338),
])
def test_hedonic_compare_selection(tmp_path, capsys, seed, h, rmse):
    # `cwreg compare` on 100 hedonic rows with six selected factors: both
    # local models select r = 1 at the same bandwidth, and the report's
    # test RMSE is their score.
    data, schema = tmp_path / "h.csv", tmp_path / "h.json"
    report = tmp_path / "report.json"
    assert main(["synth", "--regime", "hedonic", "--n", "100",
                 "--seed", str(seed), "--out", str(data),
                 "--schema-out", str(schema)]) == 0
    assert main(["compare", "--data", str(data), "--schema", str(schema),
                 "--select-factors", "6", "--seed", str(seed),
                 "--out", str(report)]) == 0
    capsys.readouterr()
    models = json.loads(report.read_text())["models"]
    for name in ("gwr", "cwr"):
        assert models[name]["params"]["r"] == 1.0
        assert f"{models[name]['params']['bandwidth']:.10g}" == h
        assert models[name]["rmse"] == pytest.approx(rmse, rel=SCORE_RTOL,
                                                     abs=0)
