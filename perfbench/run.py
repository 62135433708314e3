"""cwreg benchmark: one workload, one run, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search-attr --seed 1 --seconds 30 --trace 0

Workloads: search-attr, compare-hedonic, predict-attr (see
workloads.py for what each stresses and why). The run happens in a
child process (worker.py), so `peak_rss_mb` is that workload's alone.

With `--trace 0` the last line carries the end-to-end metrics listed in
BENCHMARK.json: `setup_s` (median of several set-ups), `op_p50_ms`
(median wall time of one operation: a search, a compare, or a predict
round) and `peak_rss_mb`. With `--trace 1` it carries the per-layer
metrics, means per operation over the traced operations. The lines
before it repeat every metric by name and unit, together with the
workload's own end-to-end metrics (search_s, compare_s, knn_p50_ms,
...), `failed_frac`, the machine block and the results digest. The
full result document is written to `.perfbench/`.

Exits nonzero without printing a result when the checkout holds no
cwreg sources, when the worker fails, or when it overruns its time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-attr", "compare-hedonic", "predict-attr")
# A run must end within 180 s; leave room for start-up and reporting.
WORKER_TIMEOUT_S = 170.0
# Relative tolerance of "root span = sum of self times under it".
ROOT_BALANCE_RTOL = 1e-9


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def end_to_end(doc: dict) -> dict:
    return {
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "op_p50_ms": (statistics.median(doc["op_s"]) * 1e3, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def select(measured: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, in its units.

    A per-layer function that the workload never calls reads 0.
    """
    out = {}
    for spec in wanted:
        value, unit = measured.get(spec["name"], (0.0, spec["unit"]))
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit!r}, "
                             f"BENCHMARK.json says {spec['unit']!r}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, not a measurement")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cwreg" / "__init__.py").is_file():
        return fail(f"no cwreg sources under {ROOT / 'src'}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        return fail(f"cannot read BENCHMARK.json: {err}")

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    out = workdir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(out)]
    try:
        # The worker's stdout is cwreg's console chatter; errors go to
        # stderr, which stays attached.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"worker overran {WORKER_TIMEOUT_S:.0f} s and was killed")
    if proc.returncode != 0 or not out.is_file():
        return fail(f"worker exited with code {proc.returncode}")
    doc = json.loads(out.read_text())
    if args.trace:
        measured = {k: tuple(v) for k, v in doc["layers"].items()}
        wanted = bench["per_layer"]
    else:
        measured = end_to_end(doc)
        wanted = bench["end_to_end"]
    try:
        metrics = select(measured, wanted)
    except ValueError as err:
        return fail(str(err))

    correct = doc["failed"] == 0
    print("machine " + json.dumps(doc["machine"], sort_keys=True))
    print("digest " + json.dumps(doc["digest"], sort_keys=True))
    for message in doc["failures"]:
        print(f"failure {message}")
    print(f"metric failed_frac {doc['failed'] / doc['attempted']:.6g} ratio "
          f"n={doc['attempted']}")
    if args.trace:
        unbalanced = [pair for pair in doc["root_balance"]
                      if abs(pair[0] - pair[1]) > ROOT_BALANCE_RTOL * pair[0]]
        if unbalanced:
            correct = False
            print(f"failure {len(unbalanced)} root spans differ from the sum "
                  f"of their self times, e.g. {unbalanced[0]}")
        print(f"spans {doc['spans']['count']} written to "
              f"{doc['spans']['path']}")
        for name, (value, unit) in sorted(measured.items()):
            print(f"layer {name} {value:.6g} {unit}")
    else:
        for name, (value, unit, n) in doc["summary"].items():
            print(f"metric {name} {value:.6g} {unit} n={n}")
        samples = {"setup_s": len(doc["setup_s"]),
                   "op_p50_ms": len(doc["op_s"]), "peak_rss_mb": 1}
        for name, (value, unit) in measured.items():
            print(f"metric {name} {value:.6g} {unit} n={samples[name]}")
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
