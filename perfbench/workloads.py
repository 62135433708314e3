"""The benchmark's three workloads and their independent correctness checks.

Each workload builds its inputs from the seed in `setup`, runs one
operation per `operation` call (the only part that is timed), and judges
the result in `check` with code that does not call into cwreg: the
oracles below recompute distances, kernels and least-squares solves with
plain numpy. The program itself only ever sees the generated tables,
CSV files and query arrays.

Why these three:

* search-attr: the default r/h search at p = 2, where the O(n^2) kernel
  and bandwidth-grid work is large enough to show next to the batched
  normal-equation solver. Kernel and distance changes show here.
* compare-hedonic: the full `cwreg compare` CLI at p = 7, dominated by
  normal-equation assembly and the condition check, with the kernel a
  few percent. The only workload that runs CSV ingestion, the boosted
  ensemble and the evaluation harness; the bypass case for kernel work.
* predict-attr: no search and no batched solve. Single-row kNN and
  local-fit requests plus 1000-row batches against a saved model, so the
  query distances, kNN sort, per-call overhead and the stable
  single-system solver dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from time import perf_counter

import numpy as np

from cwreg import cli, data, local, models

# Per-size settings. "full" is what the benchmark measures; "tiny" only
# exists so the smoke test can exercise every path in seconds.
SIZES = {
    "full": {
        "search_rows": 200, "compare_rows": 100, "predict_train": 1000,
        "predict_pool": 2000, "round_requests": 100, "batch_rows": 1000,
        "batch_check_stride": 10,
        "setup_reps": {"search-attr": 15, "compare-hedonic": 15,
                       "predict-attr": 3},
    },
    "tiny": {
        "search_rows": 40, "compare_rows": 60, "predict_train": 100,
        "predict_pool": 200, "round_requests": 10, "batch_rows": 50,
        "batch_check_stride": 5,
        "setup_reps": {"search-attr": 2, "compare-hedonic": 2,
                       "predict-attr": 2},
    },
}

# Tolerances of the independent checks, relative to max(|value|, 1).
LOO_RTOL = 1e-8
KNN_RTOL = 1e-9
LOCAL_FIT_RTOL = 1e-8

# The documented fallback of the solvers: refuse cond(X'WX) above
# 1e12 and re-solve with ridge 1e-8 * trace(X'WX) / p.
CONDITION_LIMIT = 1e12
RIDGE_SCALE = 1e-8


def rounded_hash(values, digits: int = 9) -> str:
    """Hash of values rounded to `digits` significant digits."""
    text = ",".join(f"{float(v):.{digits}g}" for v in np.ravel(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(actual, expected, rtol) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), 1.0)


# ---------------------------------------------------------------------------
# Oracles: numpy only, written from the model's definition, not its code.


def _pairwise(a, b) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _max_scaled(d) -> np.ndarray:
    top = d.max() if d.size else 0.0
    return d / top if top > 0 else d


def _standardized(matrix, means, stds) -> np.ndarray:
    return (matrix - means) / stds


def _weighted_lstsq(X, y, w) -> np.ndarray:
    """Weighted least squares with the documented ridge fallback."""
    sw = np.sqrt(w)
    A = X * sw[:, None]
    b = y * sw
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] == 0 or (s[0] / s[-1]) ** 2 > CONDITION_LIMIT:
        p = X.shape[1]
        ridge = RIDGE_SCALE * float((A * A).sum()) / p
        A = np.vstack([A, np.sqrt(ridge) * np.eye(p)])
        b = np.concatenate([b, np.zeros(p)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def _design(covariates) -> np.ndarray:
    return np.column_stack([np.ones(len(covariates)), covariates])


def loo_rmse_oracle(coords, attrs, covariates, y, r, h) -> float:
    """Leave-one-out RMSE of the blended-kernel local model at (r, h)."""
    z = _standardized(attrs, attrs.mean(axis=0), attrs.std(axis=0, ddof=1))
    D = r * _max_scaled(_pairwise(coords, coords)) + (
        1.0 - r) * _max_scaled(_pairwise(z, z))
    W = np.exp(-(D / h) ** 2)
    np.fill_diagonal(W, 0.0)
    X = _design(covariates)
    pred = np.array([X[i] @ _weighted_lstsq(X, y, W[i])
                     for i in range(len(y))])
    return float(np.sqrt(np.mean((y - pred) ** 2)))


@dataclasses.dataclass
class ModelView:
    """The parameters of a fitted blended model, as plain arrays."""

    coords: np.ndarray
    covariates: np.ndarray
    y: np.ndarray
    attr_idx: list[int]
    means: np.ndarray
    stds: np.ndarray
    r: float
    h: float
    geo_scale: float
    attr_scale: float
    coefficients: np.ndarray
    k: int

    @classmethod
    def of(cls, model) -> "ModelView":
        table, fit = model.table, model.fit
        names = list(table.covariate_names)
        return cls(coords=table.coords, covariates=table.covariates,
                   y=table.y,
                   attr_idx=[names.index(c) for c in fit.transform.columns],
                   means=fit.transform.means, stds=fit.transform.stds,
                   r=fit.spec.r, h=fit.bandwidth, geo_scale=fit.geo_scale,
                   attr_scale=fit.attr_scale,
                   coefficients=fit.coefficients, k=model.k)

    def blended(self, qcoords, qcovariates) -> np.ndarray:
        geo = _pairwise(qcoords, self.coords) / self.geo_scale
        zq = _standardized(qcovariates[:, self.attr_idx], self.means, self.stds)
        zt = _standardized(self.covariates[:, self.attr_idx], self.means,
                           self.stds)
        attr = _pairwise(zq, zt) / self.attr_scale
        return self.r * geo + (1.0 - self.r) * attr

    def knn(self, qcoords, qcovariates):
        """kNN-coefficient predictions; NaN where the k-th neighbour ties."""
        D = self.blended(qcoords, qcovariates)
        order = np.argsort(D, axis=1, kind="stable")
        rows = np.arange(len(D))
        kth = D[rows, order[:, self.k - 1]]
        nxt = D[rows, order[:, self.k]]
        beta = self.coefficients[order[:, :self.k]].mean(axis=1)
        pred = np.einsum("ij,ij->i", _design(qcovariates), beta)
        pred[nxt - kth <= 1e-9 * np.maximum(kth, 1e-300)] = np.nan
        return pred

    def local_fit(self, qcoords, qcovariates) -> np.ndarray:
        W = np.exp(-(self.blended(qcoords, qcovariates) / self.h) ** 2)
        X = _design(self.covariates)
        Xq = _design(qcovariates)
        return np.array([Xq[i] @ _weighted_lstsq(X, self.y, W[i])
                         for i in range(len(W))])


def _mismatches(label, actual, expected, rtol):
    """Indices and messages of entries that disagree.

    A NaN in `actual` marks a request that raised and always disagrees;
    a NaN in `expected` marks an ambiguous oracle value, not checked."""
    bad = [i for i, (a, e) in enumerate(zip(actual, expected))
           if not np.isfinite(a)
           or (not np.isnan(e) and not _close(a, e, rtol))]
    return bad, [f"{label}[{i}]: got {float(actual[i])!r}, independent "
                 f"value {float(expected[i])!r}" for i in bad[:3]]


# ---------------------------------------------------------------------------
# Workloads.


def _synth(flags, csv, schema) -> None:
    """Generate a dataset CSV and its schema with `cwreg synth`."""
    code = cli.main(["synth", *flags, "--out", str(csv),
                     "--schema-out", str(schema)])
    if code != 0:
        raise RuntimeError(f"cwreg synth exited with {code}")


class Workload:
    """Common shape: setup(), operation() -> result, check(result).

    check returns (requests attempted, requests failed, messages);
    summary(operation times) returns the workload's own end-to-end
    metrics as {name: (value, unit, samples)}.
    """

    name = ""

    def __init__(self, seed: int, size: dict, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.setup_reps = size["setup_reps"][self.name]

    def requests_per_operation(self) -> int:
        return 1


class SearchAttr(Workload):
    """Closed loop, one caller: default `fit_cwr` r/h search, p = 2."""

    name = "search-attr"

    def setup(self):
        csv = self.workdir / f"attr-{self.seed}.csv"
        schema = self.workdir / f"attr-{self.seed}.schema.json"
        _synth(["--regime", "attr", "--n", str(self.size["search_rows"]),
                "--sigma", "2.0", "--seed", str(self.seed)], csv, schema)
        table, _ = data.load_csv(csv, data.load_schema(schema))
        self.train, self.test = data.split(
            table, data.SplitSpec(train_fraction=0.8, seed=self.seed))
        self.expected = None

    def operation(self):
        return local.fit_cwr(self.train, attribute_columns=["x1"])

    def _digest(self, model) -> dict:
        trace = model.traces["rate"]
        return {"r": model.fit.spec.r, "h": f"{model.fit.bandwidth:.10g}",
                "score": f"{trace.selected_score:.10g}",
                "predictions": rounded_hash(model.predict_table(self.test))}

    def check(self, model):
        errors = []
        trace = model.traces["rate"]
        finite = [s for s in trace.scores if np.isfinite(s)]
        if not finite or trace.selected_score != min(finite):
            errors.append("selected score is not the minimum finite score")
        t = self.train
        oracle = loo_rmse_oracle(t.coords, t.covariate_matrix(["x1"]),
                                 t.covariates, t.y, model.fit.spec.r,
                                 model.fit.bandwidth)
        if not _close(trace.selected_score, oracle, LOO_RTOL):
            errors.append(f"selected LOO RMSE {trace.selected_score!r} != "
                          f"independent {oracle!r}")
        digest = self._digest(model)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            errors.append(f"search result changed between operations: {digest}")
        return 1, int(bool(errors)), errors

    def digest(self) -> dict:
        return self.expected

    def summary(self, op_times):
        return {"search_s": (float(np.median(op_times)), "s", len(op_times))}


class CompareHedonic(Workload):
    """Closed loop, one caller: in-process `cwreg compare` on a hedonic CSV."""

    name = "compare-hedonic"

    def setup(self):
        self.csv = self.workdir / f"hedonic-{self.seed}.csv"
        self.schema = self.workdir / f"hedonic-{self.seed}.schema.json"
        self.report = self.workdir / f"report-{self.seed}.json"
        _synth(["--regime", "hedonic", "--n", str(self.size["compare_rows"]),
                "--seed", str(self.seed)], self.csv, self.schema)
        self.expected = None

    def operation(self):
        code = cli.main(["compare", "--data", str(self.csv),
                         "--schema", str(self.schema), "--select-factors", "6",
                         "--seed", str(self.seed), "--out", str(self.report)])
        return code, self.report.read_bytes()

    def check(self, result):
        code, raw = result
        if code != 0:
            return 1, 1, [f"cwreg compare exited with {code}"]
        errors = []
        doc = json.loads(raw)
        for name, entry in doc["models"].items():
            if entry["error"] is not None:
                errors.append(f"model {name} failed: {entry['error']}")
        if set(doc["models"]) != {"ols", "gwr", "cwr", "lsboost"}:
            errors.append(f"unexpected model set {sorted(doc['models'])}")
        if self.expected is None:
            self.expected = raw
        elif raw != self.expected:
            errors.append("report bytes differ between operations")
        return 1, int(bool(errors)), errors

    def digest(self) -> dict:
        doc = json.loads(self.expected)
        cwr = doc["models"]["cwr"]
        predictions = [row["predicted"] for name in sorted(doc["residuals"])
                       for row in doc["residuals"][name]]
        return {"r": cwr["params"]["r"],
                "h": f"{cwr['params']['bandwidth']:.10g}",
                "score": f"{cwr['rmse']:.10g}",
                "selected_factors": doc["selected_factors"],
                "predictions": rounded_hash(predictions),
                "report_sha256": hashlib.sha256(self.expected).hexdigest()[:16]}

    def summary(self, op_times):
        return {"compare_s": (float(np.median(op_times)), "s", len(op_times))}


class PredictAttr(Workload):
    """Closed loop, one caller, against a saved-and-loaded model.

    One operation is a round of `round_requests` single-row knn-coef
    requests, then as many single-row local-fit requests, then one
    batch of `batch_rows` knn-coef rows.
    """

    name = "predict-attr"

    def setup(self):
        train, _ = data.generate_synthetic(
            "attr", n=self.size["predict_train"], sigma=2.0, seed=2 * self.seed)
        pool, _ = data.generate_synthetic(
            "attr", n=self.size["predict_pool"], sigma=2.0,
            seed=2 * self.seed + 1)
        fitted = local.fit_cwr(train, ["x1"], r=0.1, bandwidth="cv")
        path = self.workdir / f"model-{self.seed}.json"
        models.save_model(fitted, path)
        self.knn_model = models.load_model(path)
        if not np.array_equal(self.knn_model.fit.coefficients,
                              fitted.fit.coefficients):
            raise RuntimeError("model coefficients changed in save/load")
        self.lf_model = dataclasses.replace(self.knn_model, mode="local-fit")
        self.view = ModelView.of(self.knn_model)
        self.qcoords = pool.coords
        self.qcov = pool.covariates
        self.round = 0
        self.knn_lat: list[float] = []
        self.lf_lat: list[float] = []
        self.batch_lat: list[float] = []

    def requests_per_operation(self) -> int:
        return 2 * self.size["round_requests"] + 1

    def _rows(self):
        n_req, n_batch = self.size["round_requests"], self.size["batch_rows"]
        pool = len(self.qcoords)
        single = (self.round * n_req + np.arange(n_req)) % pool
        start = (self.round % (pool // n_batch)) * n_batch
        return single, np.arange(start, start + n_batch)

    def _single(self, model, rows, latencies):
        out = np.full(len(rows), np.nan)
        errors = []
        for j, i in enumerate(rows):
            c, x = self.qcoords[i:i + 1], self.qcov[i:i + 1]
            t0 = perf_counter()
            try:
                out[j] = model.predict(c, x)[0]
            except Exception as err:  # counted as a failed request
                errors.append(f"{model.mode} row {i}: {type(err).__name__}: {err}")
            latencies.append(perf_counter() - t0)
        return out, errors

    def operation(self):
        single, batch = self._rows()
        self.round += 1
        knn, knn_err = self._single(self.knn_model, single, self.knn_lat)
        lf, lf_err = self._single(self.lf_model, single, self.lf_lat)
        t0 = perf_counter()
        try:
            out = self.knn_model.predict(self.qcoords[batch], self.qcov[batch])
            batch_err = []
        except Exception as err:  # counted as a failed request
            out, batch_err = None, [f"batch: {type(err).__name__}: {err}"]
        self.batch_lat.append(perf_counter() - t0)
        return single, knn, lf, batch, out, knn_err + lf_err + batch_err

    def check(self, result):
        single, knn, lf, batch, out, errors = result
        qc, qx = self.qcoords[single], self.qcov[single]
        knn_bad, knn_msg = _mismatches("knn", knn, self.view.knn(qc, qx),
                                       KNN_RTOL)
        lf_bad, lf_msg = _mismatches("local-fit", lf,
                                     self.view.local_fit(qc, qx),
                                     LOCAL_FIT_RTOL)
        failed = len(knn_bad) + len(lf_bad)
        messages = errors[:3] + knn_msg + lf_msg
        if out is None:
            failed += 1
        else:
            stride = self.size["batch_check_stride"]
            spot = batch[::stride]
            batch_bad, batch_msg = _mismatches(
                "batch", out[::stride],
                self.view.knn(self.qcoords[spot], self.qcov[spot]), KNN_RTOL)
            failed += bool(batch_bad)
            messages += batch_msg
        return self.requests_per_operation(), failed, messages

    def digest(self) -> dict:
        m = self.knn_model
        rows = slice(0, min(200, len(self.qcoords)))
        knn = m.predict(self.qcoords[rows], self.qcov[rows])
        lf = self.lf_model.predict(self.qcoords[rows], self.qcov[rows])
        return {"r": m.fit.spec.r, "h": f"{m.fit.bandwidth:.10g}",
                "score": f"{m.traces['bandwidth'].selected_score:.10g}",
                "predictions": rounded_hash(np.concatenate([knn, lf]))}

    def summary(self, op_times):
        def pct(values, q):
            return float(np.percentile(values, q)) * 1e3

        rows = len(self.batch_lat) * self.size["batch_rows"]
        return {
            "knn_p50_ms": (pct(self.knn_lat, 50), "ms", len(self.knn_lat)),
            "knn_p99_ms": (pct(self.knn_lat, 99), "ms", len(self.knn_lat)),
            "localfit_p50_ms": (pct(self.lf_lat, 50), "ms", len(self.lf_lat)),
            "localfit_p99_ms": (pct(self.lf_lat, 99), "ms", len(self.lf_lat)),
            "batch_rows_per_s": (rows / sum(self.batch_lat), "1/s",
                                 len(self.batch_lat)),
        }


WORKLOADS = {w.name: w for w in (SearchAttr, CompareHedonic, PredictAttr)}
