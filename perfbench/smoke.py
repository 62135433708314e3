"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs run.py with `--size tiny`, untraced and
traced, and checks that

* the last line is the result object, with `correct` true and every
  metric BENCHMARK.json lists present with its unit;
* the lines before it print every end-to-end metric the workload names
  (search_s, compare_s, knn_p50_ms, ..., failed_frac), each with a unit;
* in the traced run, each root span read back from the written span
  file lasts as long as the self times under it add up to;
* every per-layer metric is measured on at least one workload, so a
  misspelt name in BENCHMARK.json cannot hide as a constant 0.

Last, it copies only BENCHMARK.json and perfbench/ into a scratch
directory and checks that run.py fails there without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from collections import defaultdict

import run

NAMED = {
    "search-attr": ["search_s"],
    "compare-hedonic": ["compare_s"],
    "predict-attr": ["knn_p50_ms", "knn_p99_ms", "localfit_p50_ms",
                     "localfit_p99_ms", "batch_rows_per_s"],
}
COMMON = ["setup_s", "op_p50_ms", "peak_rss_mb", "failed_frac"]


class SmokeFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SmokeFailure(message)


def bench_run(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def root_balance(path):
    """(root duration, sum of self times) per root, from the span file."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_sum = defaultdict(float)
    for s in spans:
        self_sum[s["op"]] += s["end"] - s["start"] - child[s["id"]]
    return [(s["end"] - s["start"], self_sum[s["op"]])
            for s in spans if s["parent"] < 0]


def check_workload(workload, bench, measured):
    for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = bench_run(workload, trace)
        label = f"{workload} trace={trace}"
        expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n"
               f"{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{label}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0,
               f"{label}: not correct\n{proc.stdout}")
        for spec in wanted:
            got = result["metrics"].get(spec["name"])
            expect(got is not None and got["unit"] == spec["unit"],
                   f"{label}: metric {spec['name']} missing or not in "
                   f"{spec['unit']}: {got}")
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if parts[0] == "metric":
                printed[parts[1]] = parts[3]
            elif parts[0] == "layer":
                measured.add(parts[1])
        if trace == 0:
            for name in NAMED[workload] + COMMON:
                expect(printed.get(name), f"{label}: {name} not printed "
                       f"with a unit")
        else:
            spans = next(line.split()[-1] for line in lines
                         if line.startswith("spans "))
            pairs = root_balance(run.ROOT / spans)
            expect(pairs, f"{label}: no root spans in {spans}")
            for duration, self_total in pairs:
                expect(abs(duration - self_total) <= 1e-9 * duration + 1e-12,
                       f"{label}: root span {duration} != sum of self "
                       f"times {self_total}")
        print(f"ok {label}")


def check_bare_directory():
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("search-attr", 0, cwd=bare)
        expect(proc.returncode != 0, "run.py succeeded without sources")
        expect(not proc.stdout.strip(),
               f"run.py printed a result without sources: {proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    measured: set[str] = set()
    try:
        for workload in run.WORKLOADS:
            check_workload(workload, bench, measured)
        never = [m["name"] for m in bench["per_layer"]
                 if m["name"] not in measured]
        expect(not never, f"per-layer metrics never measured: {never}")
        check_bare_directory()
    except SmokeFailure as err:
        print(f"FAIL {err}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
