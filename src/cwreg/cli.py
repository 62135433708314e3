"""Command-line interface.

Subcommands: synth (generate synthetic data), importance (rank
predictors), fit (train one model), predict (score a query file),
compare (full model comparison), map (prediction grid + residuals).
Failures exit nonzero with a one-line machine-readable JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .data import (
    _write_rows,
    generate_synthetic,
    hedonic_records,
    json_text,
    load_csv,
    load_query_csv,
    load_schema,
    read_json,
    table_schema,
    write_csv,
    write_json,
    write_records,
)
from .ensemble import predictor_importance
from .errors import CwregError, ParameterError
from .evaluate import (
    ComparisonConfig,
    export_maps,
    fit_boosted,
    fit_model,
    run_batch,
    run_comparison,
)
from .models import load_model, save_model

SYNTH_REGIMES = ("geo", "attr", "mixed", "hedonic")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage errors as JSON on stderr."""

    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _load_table(args):
    schema = load_schema(args.schema) if args.schema else None
    table, report = load_csv(args.data, schema)
    if report.rejections:
        print(f"ingestion: accepted {report.accepted_rows} of "
              f"{report.total_rows} rows "
              f"({report.rejected_rows} rejected)", file=sys.stderr)
        for line, reason in report.rejections:
            print(f"  line {line}: {reason}", file=sys.stderr)
    return table


def _number_or(word, flag, text):
    """`text` as a float, or `word` ("search" for --r, "cv" for --bandwidth)."""
    if text == word:
        return word
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f'{flag} must be a number or "{word}", got {text!r}')


def _boost_settings(args) -> dict:
    return {
        "boost_trees": args.trees,
        "boost_shrinkage": args.shrinkage,
        "boost_max_depth": args.depth,
        "boost_min_leaf": args.min_leaf,
    }


def _config(args, **settings) -> ComparisonConfig:
    """Config from the flags fit and compare share, plus `settings`."""
    return ComparisonConfig(
        seed=args.seed,
        r=_number_or("search", "--r", args.r),
        bandwidth=_number_or("cv", "--bandwidth", args.bandwidth),
        knn=args.knn,
        predict_mode=args.predict_mode,
        scoring="insample" if args.strict_paper_scoring else "loo",
        **_boost_settings(args),
        **settings,
    )


def _synth_settings(args):
    """(regime, n, sigma, seed, params): the flags, overridden by --config.

    The config must be a JSON object whose params, if given, are an
    object; a null sigma takes the generator's default. The generators
    check n, sigma, the seed and the params.
    """
    if not args.config:
        return args.regime, args.n, args.sigma, args.seed, {}
    conf = read_json(args.config)
    params = conf.get("params", {}) if isinstance(conf, dict) else None
    if not isinstance(params, dict):
        raise ParameterError("synth config must be a JSON object whose "
                             f"params are an object, got {conf!r}")
    regime = conf.get("regime", args.regime)
    if regime == "hedonic" and params:
        raise ParameterError("hedonic synth data takes no params, got "
                             f"{sorted(params)}")
    return (regime, conf.get("n", args.n), conf.get("sigma", args.sigma),
            conf.get("seed", args.seed), params)


def cmd_synth(args) -> int:
    regime, n, sigma, seed, params = _synth_settings(args)
    if regime not in SYNTH_REGIMES:
        raise ParameterError(
            f"unknown regime {regime!r}, expected one of {SYNTH_REGIMES}"
        )
    noise = {} if sigma is None else {"sigma": sigma}
    if regime == "hedonic":
        records, schema = hedonic_records(n=n, seed=seed, **noise)
        write_records(records, args.out)
        truth_doc = None
    else:
        table, truth = generate_synthetic(regime, n=n, seed=seed, **noise,
                                          **params)
        write_csv(table, args.out)
        schema = table_schema(table)
        truth_doc = {
            "regime": truth.regime,
            "params": truth.params,
            "intercepts": truth.intercepts.tolist(),
            "slopes": truth.slopes.tolist(),
        }
    if args.schema_out:
        write_json(schema, args.schema_out)
    if args.truth_out:
        if truth_doc is None:
            raise ParameterError("--truth-out is not available for hedonic data")
        write_json(truth_doc, args.truth_out)
    sigma = sigma if sigma is None else float(sigma)
    print(f"wrote {args.out} ({regime}, n={n}, sigma={sigma}, seed={seed})")
    return 0


def cmd_importance(args) -> int:
    table = _load_table(args)
    ensemble = fit_boosted(table, ComparisonConfig(**_boost_settings(args)))
    report = predictor_importance(ensemble)
    if report.uninformative:
        print("warning: ensemble never split; importances are all zero",
              file=sys.stderr)
    for rank, i in enumerate(report.order, start=1):
        print(f"{rank:3d}  {report.names[i]:<24s} "
              f"raw={report.raw[i]:.6g}  normalized={report.normalized[i]:.4f}")
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_fit(args) -> int:
    table = _load_table(args)
    config = _config(args, models=(args.model,),
                     attribute_columns=(args.attribute_columns.split(",")
                                        if args.attribute_columns else None))
    model, params = fit_model(args.model, table, config)
    save_model(model, args.out)
    summary = " ".join(f"{k}={v}" for k, v in params.items())
    print(f"fitted {args.model} on {table.n} records; {summary}".rstrip("; "))
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ids, coords, covariates = load_query_csv(args.query, model.covariate_names)
    predictions = model.predict(coords, covariates)
    rows = [["id", "u", "v", "predicted"]]
    rows += [[rid, *coords[i], predictions[i]] for i, rid in enumerate(ids)]
    if not args.out:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return 0
    _write_rows(args.out, rows[0], rows[1:])
    print(f"wrote {args.out} ({len(ids)} predictions)")
    return 0


def cmd_compare(args) -> int:
    config = _config(args, models=args.models.split(","),
                     train_fraction=args.train_frac,
                     select_top_k=args.select_factors)
    if args.manifest:
        import os
        summary = run_batch(read_json(args.manifest), config,
                            base_dir=os.path.dirname(os.path.abspath(args.manifest)))
        if args.out:
            write_json(summary, args.out)
            for case in summary["cases"]:
                rmses = " ".join(f"{m}={v:.4g}" if v is not None else f"{m}=failed"
                                 for m, v in case["models"].items())
                print(f"{case['name']}: {rmses}")
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(json_text(summary))
        return 0
    if not args.data:
        raise ParameterError("compare needs --data or --manifest")
    table = _load_table(args)
    report = run_comparison(table, config)
    if args.out:
        write_json(report.to_dict(), args.out)
        for name in config.models:
            res = report.results[name]
            if res.ok:
                print(f"{name:8s} rmse={res.rmse:.6g} "
                      f"runtime={res.runtime:.2f}s "
                      + " ".join(f"{k}={v}" for k, v in res.params.items()))
            else:
                print(f"{name:8s} FAILED: {res.error}")
        for a, row in report.improvements.items():
            for b, pct in row.items():
                if pct is not None:
                    print(f"improvement {a} over {b}: {pct:.2f}%")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(json_text(report.to_dict()))
    return 0


def cmd_map(args) -> int:
    model = load_model(args.model)
    table = _load_table(args)
    export = export_maps(model, table, (args.nx, args.ny), args.out_prefix)
    print(f"wrote {export.grid_path} ({export.grid_coords.shape[0]} grid points)")
    print(f"wrote {export.residual_path} ({export.n_residuals} residual rows)")
    return 0


def _add_data_flags(p, required=True):
    p.add_argument("--data", required=required, help="dataset CSV path")
    p.add_argument("--schema", default=None,
                   help="schema JSON path (default: built-in house-price schema)")


def _add_boost_flags(p):
    p.add_argument("--trees", type=int, default=100,
                   help="boosting stages (default 100)")
    p.add_argument("--shrinkage", type=float, default=0.1,
                   help="boosting learning rate (default 0.1)")
    p.add_argument("--depth", type=int, default=3,
                   help="tree depth (default 3)")
    p.add_argument("--min-leaf", type=int, default=5, dest="min_leaf",
                   help="minimum records per leaf (default 5)")


def _add_model_flags(p):
    """The flags _config reads, shared by fit and compare."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", default="search",
                   help='blend ratio in [0, 1] or "search" (default)')
    p.add_argument("--bandwidth", default="cv",
                   help='kernel bandwidth or "cv" (default)')
    p.add_argument("--knn", type=int, default=3,
                   help="neighbors for coefficient averaging (default 3)")
    p.add_argument("--predict-mode", choices=("knn-coef", "local-fit"),
                   default="knn-coef", dest="predict_mode")
    p.add_argument("--strict-paper-scoring", action="store_true",
                   dest="strict_paper_scoring",
                   help="judge blend-ratio candidates by in-sample training "
                        "RMSE instead of leave-one-out RMSE")
    _add_boost_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cwreg",
                     description="Spatial regression with blended "
                                 "geographic/attribute kernel weights.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset",
                       description="Generate a synthetic dataset CSV.")
    p.add_argument("--regime", choices=SYNTH_REGIMES, default="geo")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="JSON config overriding the flags above")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--schema-out", default=None, dest="schema_out",
                   help="also write the matching schema JSON here")
    p.add_argument("--truth-out", default=None, dest="truth_out",
                   help="also write ground-truth coefficients here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("importance", help="rank predictors by split gain")
    _add_data_flags(p)
    _add_boost_flags(p)
    p.add_argument("--out", default=None, help="importance CSV path")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("fit", help="train one model and save it")
    _add_data_flags(p)
    p.add_argument("--model", choices=("ols", "gwr", "cwr", "lsboost"),
                   default="cwr")
    p.add_argument("--attribute-columns", default=None, dest="attribute_columns",
                   help="comma-separated attribute-distance columns "
                        "(default: all continuous covariates)")
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="score a query CSV with a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--query", required=True,
                   help="CSV with u, v and the model's covariate columns")
    p.add_argument("--out", default=None, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare", help="train and score every model")
    _add_data_flags(p, required=False)
    p.add_argument("--manifest", default=None,
                   help="JSON manifest of named cases (batch mode)")
    p.add_argument("--models", default="ols,gwr,cwr,lsboost",
                   help="comma-separated model list")
    p.add_argument("--train-frac", type=float, default=0.8, dest="train_frac")
    p.add_argument("--select-factors", type=int, default=None,
                   dest="select_factors", metavar="K",
                   help="keep only the top K covariates by importance")
    _add_model_flags(p)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("map", help="export a prediction grid and residuals")
    p.add_argument("--model", required=True, help="model JSON path")
    _add_data_flags(p)
    p.add_argument("--nx", type=int, default=25, help="grid points along u")
    p.add_argument("--ny", type=int, default=25, help="grid points along v")
    p.add_argument("--out-prefix", required=True, dest="out_prefix",
                   help="output prefix for <prefix>_grid.csv and "
                        "<prefix>_residuals.csv")
    p.set_defaults(func=cmd_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Numbers too large for float arithmetic fail, not write inf or NaN.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except CwregError as err:
        _emit_error(type(err).__name__, str(err))
    except OSError as err:
        _emit_error("OSError", str(err))
    except FloatingPointError as err:
        _emit_error("FloatingPointError", str(err))
    return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
