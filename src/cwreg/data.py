"""Dataset schema, CSV ingestion, splitting, standardization, synthesis.

The on-disk format is a flat CSV described by a schema JSON naming each
column and its role: "id", "coordinate" (exactly two: easting then
northing), "response", "covariate" (numeric) or "dummy-source"
(categorical, expanded to 0/1 indicator columns at ingestion). Rows
that fail to parse are rejected individually and reported with their
file line number; ingestion aborts only when more than half of the
rows are rejected.

The train/test split is reproducible across machines: a NumPy PCG64
generator seeded with the given integer permutes the row indices and
the first round(train_fraction * n) permuted rows form the training
set (round-half-even, clamped so both sides are non-empty).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    IngestionError,
    ParameterError,
    SchemaError,
)


def _finite_number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a `kind` (numbers.Real or numbers.Integral),
    not a bool, and finite as a float: NaN, the infinities and integers
    too large for a float are not."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _numbers(value, what, shape=(), kind=numbers.Real):
    """`value` as a float (an int for numbers.Integral) or, given a
    `shape`, nested lists of exactly that shape as a float (int) array.
    Every cell passes _finite_number(cell, kind); list cells are checked
    by their set of types, then in one isfinite pass."""
    dtype = int if kind is numbers.Integral else float
    if not shape and _finite_number(value, kind):
        return dtype(value)
    cells = [value]
    for size in shape:
        if not all(isinstance(c, list) and len(c) == size for c in cells):
            raise ParameterError(f"{what} must be nested lists of shape {shape}")
        cells = [x for c in cells for x in c]
    with suppress(OverflowError):  # an int beyond the array's dtype
        if shape and all(issubclass(t, kind) and not issubclass(t, bool)
                         for t in set(map(type, cells))):
            array = np.array(cells, dtype)
            if np.all(np.isfinite(array)):
                return array.reshape(shape)
    raise ParameterError(f"{what} must hold finite {kind.__name__} numbers, "
                         f"got {value!r:.60}")


def _names(value, what) -> list[str]:
    """`value`, a list of strings, as a new list."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ParameterError(f"{what} must be a list of strings, got {value!r:.60}")
    return list(value)


def _write_rows(path, header, rows) -> None:
    """Write `header`, then `rows`, as a CSV file with \\r\\n line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


ROLES = ("id", "coordinate", "response", "covariate", "dummy-source")

POI_NAMES = (
    "museum",
    "library",
    "hotel",
    "convenience_store",
    "train_station",
    "school",
    "gas_station",
    "temple",
    "police_station",
    "restaurant",
    "parking_lot",
)

LAND_USE_LEVELS = ("residential", "commercial", "mixed_use", "industrial")

#: House-price-shaped default schema matching the shipped sample data.
DEFAULT_SCHEMA = {
    "columns": (
        [
            {"name": "id", "role": "id"},
            {"name": "u", "role": "coordinate", "unit": "m"},
            {"name": "v", "role": "coordinate", "unit": "m"},
            {"name": "price", "role": "response", "unit": "10k_twd"},
            {"name": "floor_area", "role": "covariate", "unit": "m2"},
            {"name": "house_age", "role": "covariate", "unit": "years"},
        ]
        + [
            {"name": f"dist_{poi}", "role": "covariate", "unit": "m"}
            for poi in POI_NAMES
        ]
        + [
            {"name": "n_rooms", "role": "covariate", "unit": "count"},
            {"name": "n_bathrooms", "role": "covariate", "unit": "count"},
            {"name": "n_living_rooms", "role": "covariate", "unit": "count"},
            {"name": "land_use", "role": "dummy-source"},
        ]
    )
}


@dataclass
class ObservationTable:
    """Georeferenced records: ids, coordinates, response, covariates.

    Tables are treated as immutable once constructed; every transform
    in this package returns a new table. `dummy_names` records which
    covariate columns came from dummy expansion so that distance
    computations can default to the continuous covariates only.
    """

    ids: list[str]
    coords: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    covariate_names: list[str]
    dummy_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.ids = [str(i) for i in self.ids]
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.covariates = np.asarray(self.covariates, dtype=float)
        if self.covariates.ndim == 1:
            self.covariates = self.covariates.reshape(len(self.y), -1)
        self.covariate_names = list(self.covariate_names)
        self.dummy_names = list(self.dummy_names)
        n = len(self.ids)
        if n < 1:
            raise DimensionError("a table needs at least one record")
        if self.coords.shape != (n, 2):
            raise DimensionError(
                f"coords must have shape ({n}, 2), got {self.coords.shape}"
            )
        if self.y.shape[0] != n:
            raise DimensionError(f"y must have {n} entries, got {self.y.shape[0]}")
        if self.covariates.shape != (n, len(self.covariate_names)):
            raise DimensionError(
                f"covariates must have shape ({n}, {len(self.covariate_names)}), "
                f"got {self.covariates.shape}"
            )
        if len(set(self.ids)) != n:
            raise ParameterError("record ids must be unique")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise ParameterError("covariate names must be unique")
        unknown = set(self.dummy_names) - set(self.covariate_names)
        if unknown:
            raise ParameterError(f"dummy_names not among covariates: {sorted(unknown)}")
        for name, arr in (("coords", self.coords), ("y", self.y),
                          ("covariates", self.covariates)):
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.ids)

    def column_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise ParameterError(f"unknown covariate column {name!r}") from None

    def covariate_matrix(self, names) -> np.ndarray:
        """Covariate columns selected by name, in the given order."""
        idx = [self.column_index(name) for name in names]
        return self.covariates[:, idx]

    def subset(self, indices) -> "ObservationTable":
        idx = np.asarray(indices, dtype=int)
        return ObservationTable(
            ids=[self.ids[i] for i in idx],
            coords=self.coords[idx],
            y=self.y[idx],
            covariates=self.covariates[idx],
            covariate_names=list(self.covariate_names),
            dummy_names=list(self.dummy_names),
        )

    def with_covariates(self, names) -> "ObservationTable":
        """Table restricted to the given covariate columns."""
        return ObservationTable(
            ids=list(self.ids),
            coords=self.coords,
            y=self.y,
            covariates=self.covariate_matrix(names),
            covariate_names=list(names),
            dummy_names=[d for d in self.dummy_names if d in names],
        )

    def default_attribute_columns(self) -> list[str]:
        """Continuous covariates: the default attribute-distance columns."""
        return [c for c in self.covariate_names if c not in self.dummy_names]

    def to_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "coords": self.coords.tolist(),
            "y": self.y.tolist(),
            "covariates": self.covariates.tolist(),
            "covariate_names": list(self.covariate_names),
            "dummy_names": list(self.dummy_names),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ObservationTable":
        ids, names = (_names(doc[key], key) for key in ("ids", "covariate_names"))
        n = len(ids)
        return cls(ids=ids, coords=_numbers(doc["coords"], "coords", (n, 2)),
                   y=_numbers(doc["y"], "y", (n,)),
                   covariates=_numbers(doc["covariates"], "covariates",
                                       (n, len(names))),
                   covariate_names=names,
                   dummy_names=_names(doc.get("dummy_names", []),
                                      "dummy_names"))


@dataclass
class IngestionReport:
    """Per-file ingestion outcome: counts plus (line, reason) rejections."""

    total_rows: int
    accepted_rows: int
    rejections: list[tuple[int, str]] = field(default_factory=list)

    @property
    def rejected_rows(self) -> int:
        return len(self.rejections)


@dataclass(frozen=True)
class _SchemaView:
    id_column: str | None
    coord_columns: tuple[str, str]
    response_column: str
    covariate_columns: tuple[str, ...]
    dummy_columns: tuple[str, ...]

    @property
    def required(self) -> tuple[str, ...]:
        req = list(self.coord_columns) + [self.response_column]
        req += list(self.covariate_columns) + list(self.dummy_columns)
        if self.id_column:
            req.insert(0, self.id_column)
        return tuple(req)


def read_json(path):
    """Parse a JSON file; content that is not JSON raises ParameterError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ParameterError(
                f"{path}: not a JSON document ({err})") from err


def json_text(doc) -> str:
    """`doc` as indented JSON plus a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def write_json(doc, path) -> None:
    """Write json_text(doc) to `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc))


def load_schema(path) -> dict:
    schema = read_json(path)
    _schema_view(schema)  # validate eagerly
    return schema


def _schema_view(schema: dict) -> _SchemaView:
    if not (isinstance(schema, dict)
            and isinstance(schema.get("columns"), list)):
        raise SchemaError('schema must be an object with a "columns" list')
    ids, coords, responses, covs, dummies = [], [], [], [], []
    seen = set()
    for col in schema["columns"]:
        if not isinstance(col, dict):
            raise SchemaError(f"bad schema column {col!r}")
        name = col.get("name")
        role = col.get("role")
        if not (isinstance(name, str) and name) or role not in ROLES:
            raise SchemaError(f"bad schema column {col!r}")
        if name in seen:
            raise SchemaError(f"duplicate schema column {name!r}")
        seen.add(name)
        {"id": ids, "coordinate": coords, "response": responses,
         "covariate": covs, "dummy-source": dummies}[role].append(name)
    if len(coords) != 2:
        raise SchemaError(f"schema needs exactly 2 coordinate columns, got {len(coords)}")
    if len(responses) != 1:
        raise SchemaError(f"schema needs exactly 1 response column, got {len(responses)}")
    if len(ids) > 1:
        raise SchemaError("schema allows at most one id column")
    return _SchemaView(
        id_column=ids[0] if ids else None,
        coord_columns=(coords[0], coords[1]),
        response_column=responses[0],
        covariate_columns=tuple(covs),
        dummy_columns=tuple(dummies),
    )


class _RowError(ValueError):
    pass


def _parse_float(raw, column):
    text = (raw or "").strip()
    if not text:
        raise _RowError(f"missing value in {column!r}")
    try:
        value = float(text)
    except ValueError:
        raise _RowError(f"non-numeric value {text!r} in {column!r}") from None
    if not np.isfinite(value):
        raise _RowError(f"non-finite value in {column!r}")
    return value


def _csv_rows(path, required):
    """(file line, row dict) for each data row of a CSV file whose
    header names every column in `required`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: empty file")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: header is missing columns {missing}")
        for row in reader:
            yield reader.line_num, row


def load_csv(path, schema: dict | None = None):
    """Read a dataset CSV against a schema.

    Returns (ObservationTable, IngestionReport). Malformed rows are
    rejected one by one (missing, non-numeric, non-finite or duplicate
    values) and listed in the report with their file line number.
    Raises SchemaError when a required column is absent from the
    header and IngestionError when the file is empty or more than half
    the rows are rejected.
    """
    view = _schema_view(schema if schema is not None else DEFAULT_SCHEMA)
    records = []
    rejections: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    for line, row in _csv_rows(path, view.required):
        try:
            if view.id_column:
                rid = (row.get(view.id_column) or "").strip()
                if not rid:
                    raise _RowError(f"missing value in {view.id_column!r}")
            else:
                rid = f"row{line}"
            if rid in seen_ids:
                raise _RowError(f"duplicate id {rid!r}")
            coord = [_parse_float(row.get(c), c) for c in view.coord_columns]
            response = _parse_float(row.get(view.response_column),
                                    view.response_column)
            covs = [_parse_float(row.get(c), c) for c in view.covariate_columns]
            dummies = []
            for c in view.dummy_columns:
                raw = (row.get(c) or "").strip()
                if not raw:
                    raise _RowError(f"missing value in {c!r}")
                dummies.append(raw)
        except _RowError as err:
            rejections.append((line, str(err)))
            continue
        seen_ids.add(rid)
        records.append((rid, coord, response, covs, dummies))
    total = len(records) + len(rejections)
    if total == 0:
        raise IngestionError(f"{path}: no data rows")
    if 2 * len(rejections) > total:
        raise IngestionError(
            f"{path}: {len(rejections)} of {total} rows rejected; "
            "refusing to ingest a majority-invalid file"
        )
    table = _assemble_table(records, view)
    report = IngestionReport(total_rows=total, accepted_rows=len(records),
                             rejections=rejections)
    return table, report


def _assemble_table(records, view: _SchemaView) -> ObservationTable:
    ids = [r[0] for r in records]
    coords = np.array([r[1] for r in records], dtype=float)
    y = np.array([r[2] for r in records], dtype=float)
    cov_cols = [np.array([r[3][j] for r in records], dtype=float)
                for j in range(len(view.covariate_columns))]
    names = list(view.covariate_columns)
    dummy_names: list[str] = []
    # One indicator per category beyond the first (sorted) level, which
    # serves as the reference; keeps intercepted designs full rank.
    for j, col in enumerate(view.dummy_columns):
        raw = [r[4][j] for r in records]
        levels = sorted(set(raw))
        for level in levels[1:]:
            name = f"{col}={level}"
            cov_cols.append(np.array([1.0 if v == level else 0.0 for v in raw]))
            names.append(name)
            dummy_names.append(name)
    covariates = (np.column_stack(cov_cols) if cov_cols
                  else np.empty((len(ids), 0)))
    return ObservationTable(ids=ids, coords=coords, y=y, covariates=covariates,
                            covariate_names=names, dummy_names=dummy_names)


def table_schema(table: ObservationTable) -> dict:
    """Schema describing the CSV layout written by write_csv.

    Dummy-expanded columns are declared as plain covariates, so a
    written file round-trips through load_csv to an equal table except
    for the dummy bookkeeping.
    """
    columns = [
        {"name": "id", "role": "id"},
        {"name": "u", "role": "coordinate"},
        {"name": "v", "role": "coordinate"},
        {"name": "price", "role": "response"},
    ]
    columns += [{"name": c, "role": "covariate"} for c in table.covariate_names]
    return {"columns": columns}


def write_csv(table: ObservationTable, path) -> None:
    """Write a table as id,u,v,price plus one column per covariate."""
    values = np.column_stack([table.coords, table.y, table.covariates])
    _write_rows(path, ["id", "u", "v", "price"] + table.covariate_names,
                ([rid, *map(repr, row)] for rid, row in
                 zip(table.ids, values.tolist())))


def load_query_csv(path, covariate_names):
    """Read query points: u, v plus the model's covariate columns.

    An "id" column is used when present; otherwise ids are synthesized
    from line numbers. Queries must be clean, so any malformed row
    raises IngestionError rather than being skipped.
    """
    ids, coords, rows = [], [], []
    for line, row in _csv_rows(path, ["u", "v", *covariate_names]):
        try:
            coords.append([_parse_float(row.get("u"), "u"),
                           _parse_float(row.get("v"), "v")])
            rows.append([_parse_float(row.get(c), c) for c in covariate_names])
        except _RowError as err:
            raise IngestionError(f"{path}: line {line}: {err}") from None
        rid = (row.get("id") or "").strip()
        ids.append(rid if rid else f"q{line}")
    if not ids:
        raise IngestionError(f"{path}: no query rows")
    return ids, np.array(coords, dtype=float), np.array(rows, dtype=float)


def _check_seed(seed) -> None:
    """Refuse what np.random.default_rng would: a seed must be an int >= 0."""
    if not _finite_number(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Seeded shuffle-split parameters."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        _check_seed(self.seed)


def split(table: ObservationTable, spec: SplitSpec):
    """Disjoint train/test split covering every record.

    PCG64(seed) permutes the indices; the first round(f * n) permuted
    rows are the training set. Row order within each part follows the
    original table for readability.
    """
    if table.n < 5:
        raise ParameterError(f"need at least 5 records to split, got {table.n}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(table.n)
    k = int(round(spec.train_fraction * table.n))
    k = min(max(k, 1), table.n - 1)
    train_idx = np.sort(perm[:k])
    test_idx = np.sort(perm[k:])
    return table.subset(train_idx), table.subset(test_idx)


@dataclass
class StandardizationTransform:
    """Per-column z-score map fitted on training data.

    Columns are centered by their training mean and divided by the
    training standard deviation (n-1 denominator, so (1, 2, 3) maps to
    (-1, 0, 1)). Zero-variance columns are excluded from the transform
    and listed in `excluded`.
    """

    columns: list[str]
    means: np.ndarray
    stds: np.ndarray
    excluded: list[str] = field(default_factory=list)

    def apply(self, matrix) -> np.ndarray:
        M = np.atleast_2d(np.asarray(matrix, dtype=float))
        if M.shape[1] != len(self.columns):
            raise DimensionError(
                f"expected {len(self.columns)} columns, got {M.shape[1]}"
            )
        if not np.all(np.isfinite(M)):
            raise ParameterError("cannot standardize non-finite values")
        if M.shape[1] == 0:
            return M.copy()
        return (M - self.means) / self.stds

    def apply_table(self, table: ObservationTable) -> np.ndarray:
        return self.apply(table.covariate_matrix(self.columns))

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
            "excluded": list(self.excluded),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StandardizationTransform":
        columns = _names(doc["columns"], "standardization columns")
        means, stds = (_numbers(doc[key], f"standardization {key}",
                                (len(columns),)) for key in ("means", "stds"))
        if not np.all(stds > 0):
            raise ParameterError("standardization stds must be positive")
        return cls(columns=columns, means=means, stds=stds,
                   excluded=_names(doc.get("excluded", []),
                                   "standardization excluded"))


def standardize(table: ObservationTable, columns) -> StandardizationTransform:
    """Fit a z-score transform on the given columns of a training table.

    A zero-variance column cannot be scaled; it is dropped from the
    transform with a warning. A column whose mean or variance overflows
    raises ParameterError. transform.apply_table(table) gives the
    standardized columns.
    """
    columns = list(columns)
    M = table.covariate_matrix(columns)
    with np.errstate(over="ignore", invalid="ignore"):
        means = M.mean(axis=0)
        stds = M.std(axis=0, ddof=1) if table.n > 1 else np.zeros(len(columns))
    finite = np.isfinite(means) & np.isfinite(stds)
    huge = [c for c, ok in zip(columns, finite) if not ok]
    if huge:
        raise ParameterError(
            f"columns {huge} are too large to standardize: their mean or "
            "variance overflows")
    keep = stds > 0
    excluded = [c for c, k in zip(columns, keep) if not k]
    if excluded:
        warnings.warn(
            f"zero-variance columns excluded from standardization: {excluded}",
            stacklevel=2,
        )
    return StandardizationTransform(
        columns=[c for c, k in zip(columns, keep) if k],
        means=means[keep],
        stds=stds[keep],
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# Synthetic data

REGIMES = ("geo", "attr", "mixed")

GEO_DEFAULTS = {
    "extent": 1000.0,
    "intercept_base": 20.0,
    "intercept_amp": 10.0,
    "slope_base": 2.0,
    "slope_amp": 1.5,
}

ATTR_DEFAULTS = {
    "extent": 1000.0,
    "cluster_centers": (-2.0, 2.0),
    "cluster_intercepts": (10.0, 30.0),
    "cluster_slopes": (2.5, -2.5),
    "cluster_sd": 0.5,
}


@dataclass
class SyntheticTruth:
    """Ground-truth coefficients behind a synthetic table."""

    regime: str
    intercepts: np.ndarray
    slopes: np.ndarray
    params: dict

    def coefficients_at(self, coords):
        """True (intercept, slope) surfaces evaluated at coordinates.

        Only the geo regime has location-determined coefficients; for
        the others the truth depends on per-record attributes.
        """
        if self.regime != "geo":
            raise ParameterError(
                f"coefficients_at is only defined for the geo regime, "
                f"not {self.regime!r}"
            )
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        b0, b1 = _geo_surfaces(coords, self.params)
        return b0, b1


def _geo_surfaces(coords, params):
    L = params["extent"]
    u = coords[:, 0]
    v = coords[:, 1]
    b0 = params["intercept_base"] + params["intercept_amp"] * np.sin(
        np.pi * u / L) * np.cos(np.pi * v / L)
    b1 = params["slope_base"] + params["slope_amp"] * np.cos(
        np.pi * u / L) * np.sin(np.pi * v / L)
    return b0, b1


# Generator parameters whose values are restricted: (range, test).
_PARAM_RANGES = {"extent": ("positive", lambda x: x > 0),
                 "cluster_sd": ("nonnegative", lambda x: x >= 0),
                 "mix": ("in [0, 1]", lambda x: 0 <= x <= 1)}


def _merged(defaults, params):
    """`defaults` overridden by `params`. Each value has its default's
    shape, a finite real (not a bool) or a pair of them, and range."""
    unknown = set(params) - set(defaults)
    if unknown:
        raise ParameterError(f"unknown generator parameters: {sorted(unknown)}")
    for key, value in params.items():
        pair = isinstance(defaults[key], tuple)
        values = value if pair and isinstance(value, (list, tuple)) else [value]
        if len(values) != (2 if pair else 1) or not all(map(_finite_number, values)):
            raise ParameterError(
                f"generator parameter {key} must be "
                f"{'a pair of finite numbers' if pair else 'a finite number'}"
                f", got {value!r}")
        text, ok = _PARAM_RANGES.get(key, ("", lambda x: True))
        if not ok(value):
            raise ParameterError(
                f"generator parameter {key} must be {text}, got {value!r}")
    return {**defaults, **params}


def _check_generated(*arrays) -> None:
    """Report huge parameters that overflowed the (warning-free) generator."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ParameterError(
            "generator parameters overflow: the generated data is not finite")


def _check_draw(n, sigma, seed) -> None:
    """Refuse what every generator refuses: n must be an int >= 10,
    sigma a finite number >= 0, and the seed as for _check_seed."""
    if not _finite_number(n, numbers.Integral) or n < 10:
        raise ParameterError(f"need an integer n >= 10, got {n!r}")
    if not _finite_number(sigma) or sigma < 0:
        raise ParameterError(f"sigma must be a finite number >= 0, got {sigma!r}")
    _check_seed(seed)


@np.errstate(all="ignore")
def generate_synthetic(regime: str, n: int = 200, sigma: float = 1.0,
                       seed: int = 0, **params):
    """Generate a synthetic dataset with one covariate x1.

    Regimes:

    * "geo": y = b0(u, v) + b1(u, v) * x1 + noise with smooth
      coefficient surfaces; x1 is drawn independently of location, so
      attribute similarity carries no signal.
    * "attr": records belong to one of two attribute clusters that are
      spatially interleaved; each cluster has its own intercept and
      slope, so attribute similarity carries the signal geography
      lacks.
    * "mixed": a convex combination of the two coefficient fields,
      weighted by the `mix` parameter (default 0.5).

    Returns (ObservationTable, SyntheticTruth). With sigma = 0 the
    response equals intercepts + slopes * x1 exactly.
    """
    defaults = {"geo": GEO_DEFAULTS, "attr": ATTR_DEFAULTS,
                "mixed": {**GEO_DEFAULTS, **ATTR_DEFAULTS, "mix": 0.5}}
    if regime not in REGIMES:
        raise ParameterError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    _check_draw(n, sigma, seed)
    p = _merged(defaults[regime], params)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, p["extent"], size=(n, 2))
    if regime == "geo":
        x1 = rng.normal(0.0, 1.0, size=n)
        b0, b1 = _geo_surfaces(coords, p)
    else:
        k = rng.integers(0, 2, size=n)
        x1 = np.asarray(p["cluster_centers"])[k] + rng.normal(
            0.0, p["cluster_sd"], size=n)
        b0 = np.asarray(p["cluster_intercepts"], dtype=float)[k]
        b1 = np.asarray(p["cluster_slopes"], dtype=float)[k]
    if regime == "mixed":
        mix = p["mix"] = float(p["mix"])
        g0, g1 = _geo_surfaces(coords, p)
        b0 = mix * g0 + (1.0 - mix) * b0
        b1 = mix * g1 + (1.0 - mix) * b1

    noise = sigma * rng.standard_normal(n)
    y = b0 + b1 * x1 + noise
    _check_generated(coords, x1, b0, b1, y)
    table = ObservationTable(
        ids=[f"s{i + 1:05d}" for i in range(n)],
        coords=coords,
        y=y,
        covariates=x1.reshape(-1, 1),
        covariate_names=["x1"],
    )
    truth = SyntheticTruth(regime=regime, intercepts=b0,
                           slopes=b1.reshape(-1, 1), params=p)
    return table, truth


HEDONIC_DEFAULTS = {
    "extent": 1000.0,
    "base_price": 50.0,
    "spatial_amp": 5.0,
    "floor_area_effect": 0.9,
    "house_age_effect": -1.8,
}


@np.errstate(all="ignore")
def generate_hedonic(n: int = 200, sigma: float = 10.0, seed: int = 0,
                     n_poi: int = 10, **params):
    """House-price-shaped synthetic data for importance experiments.

    The response depends on floor area and house age (plus a mild
    smooth spatial offset and noise); the n_poi point-of-interest
    distance columns are pure noise. Returns (table, truth).
    """
    _check_draw(n, sigma, seed)
    if not 0 <= n_poi <= len(POI_NAMES):
        raise ParameterError(f"n_poi must be in [0, {len(POI_NAMES)}], got {n_poi}")
    p = _merged(HEDONIC_DEFAULTS, params)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, p["extent"], size=(n, 2))
    floor_area = rng.uniform(40.0, 200.0, size=n)
    house_age = rng.uniform(0.0, 40.0, size=n)
    pois = rng.uniform(50.0, 5000.0, size=(n, n_poi))
    b0 = p["base_price"] + p["spatial_amp"] * np.sin(
        np.pi * coords[:, 0] / p["extent"]) * np.cos(
        np.pi * coords[:, 1] / p["extent"])
    slopes = np.zeros((n, 2 + n_poi))
    slopes[:, 0] = p["floor_area_effect"]
    slopes[:, 1] = p["house_age_effect"]
    covariates = np.column_stack([floor_area, house_age, pois])
    y = b0 + np.sum(slopes * covariates, axis=1) + sigma * rng.standard_normal(n)
    _check_generated(coords, covariates, b0, y)
    names = ["floor_area", "house_age"] + [
        f"dist_{poi}" for poi in POI_NAMES[:n_poi]]
    table = ObservationTable(
        ids=[f"h{i + 1:05d}" for i in range(n)],
        coords=coords,
        y=y,
        covariates=covariates,
        covariate_names=names,
    )
    truth = SyntheticTruth(regime="hedonic", intercepts=b0, slopes=slopes,
                           params=p)
    return table, truth


def hedonic_records(n: int = 20, sigma: float = 10.0, seed: int = 7):
    """Raw rows in the full default schema, land-use category included.

    Used to produce the shipped sample CSV and by `synth --regime
    hedonic`; room counts and land use do not influence the price.
    Returns (records, schema) where records are writable dicts.
    """
    table, _ = generate_hedonic(n=n, sigma=sigma, seed=seed,
                                n_poi=len(POI_NAMES))
    rng = np.random.default_rng(seed + 1)
    rooms = rng.integers(1, 6, size=n)
    baths = rng.integers(1, 4, size=n)
    living = rng.integers(1, 3, size=n)
    land_use = rng.choice(LAND_USE_LEVELS, size=n)
    records = []
    for i in range(n):
        rec = {
            "id": table.ids[i],
            "u": round(table.coords[i, 0], 2),
            "v": round(table.coords[i, 1], 2),
            "price": round(table.y[i], 3),
            "floor_area": round(table.covariates[i, 0], 2),
            "house_age": round(table.covariates[i, 1], 2),
        }
        for j, poi in enumerate(POI_NAMES):
            rec[f"dist_{poi}"] = round(table.covariates[i, 2 + j], 1)
        rec["n_rooms"] = int(rooms[i])
        rec["n_bathrooms"] = int(baths[i])
        rec["n_living_rooms"] = int(living[i])
        rec["land_use"] = str(land_use[i])
        records.append(rec)
    return records, DEFAULT_SCHEMA


def write_records(records, path) -> None:
    """Write raw record dicts (as from hedonic_records) to CSV."""
    if not records:
        raise ParameterError("no records to write")
    fields = list(records[0])
    _write_rows(path, fields, ([r.get(f, "") for f in fields] for r in records))
