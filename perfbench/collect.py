"""Summarise result files of several runs: medians, spreads, digests.

    python3 perfbench/collect.py [--dir .perfbench] [--out FILE] [--baseline FILE]

Reads the untraced result documents run.py leaves in `--dir`
(result-<workload>-s<seed>-t0.json). For each workload and metric it
prints the median over seeds, the quartiles (statistics.quantiles with
n=4) and the spread, (Q3 - Q1) / median. `--out` writes all of it,
with every seed's results digest and the machine block, as a baseline
file. `--baseline` compares the digests with those of an earlier
baseline, seed by seed, and exits 1 when any differ: a change that
moves the selected r or h, the selected score or the rounded
predictions is then visible, whatever it did to the timings.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

import run

RESULT = re.compile(r"result-(?P<workload>.+)-s(?P<seed>-?\d+)-t0\.json$")


def load(directory: Path) -> dict:
    """{workload: {seed: result document}} for untraced full-size runs."""
    found: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("result-*-t0.json")):
        m = RESULT.search(path.name)
        if m and m["workload"] in run.WORKLOADS:
            doc = json.loads(path.read_text())
            if doc["size"] == "full":
                found.setdefault(m["workload"], {})[int(m["seed"])] = doc
    return found


def metric_values(doc: dict) -> dict:
    """Every end-to-end metric of one run: name -> (value, unit)."""
    values = dict(run.end_to_end(doc))
    for name, (value, unit, _) in doc["summary"].items():
        values[name] = (value, unit)
    values["failed_frac"] = (doc["failed"] / doc["attempted"], "ratio")
    return values


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarise(found: dict) -> dict:
    out = {}
    for workload, runs in sorted(found.items()):
        seeds = sorted(runs)
        per_metric: dict[str, list] = {}
        units = {}
        for seed in seeds:
            for name, (value, unit) in metric_values(runs[seed]).items():
                per_metric.setdefault(name, []).append(value)
                units[name] = unit
        out[workload] = {
            "seeds": seeds,
            "metrics": {name: {"unit": units[name], **spread(values)}
                        for name, values in per_metric.items()},
            "digests": {str(seed): runs[seed]["digest"] for seed in seeds},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", default=str(run.ROOT / ".perfbench"))
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    found = load(Path(args.dir))
    if not found:
        print(f"no untraced result files in {args.dir}", file=sys.stderr)
        return 1
    summary = summarise(found)
    for workload, entry in summary.items():
        print(f"{workload} (seeds {entry['seeds']})")
        for name, m in sorted(entry["metrics"].items()):
            print(f"  {name:18s} median {m['median']:<12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:<10.6g} q3 {m['q3']:<10.6g} "
                  f"spread {m['spread']:.4f}")
    if args.out:
        any_doc = next(iter(next(iter(found.values())).values()))
        doc = {"machine": any_doc["machine"], "seconds": any_doc["seconds"],
               "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())["workloads"]
        changed = [(w, seed) for w, entry in summary.items()
                   for seed, digest in entry["digests"].items()
                   if base.get(w, {}).get("digests", {}).get(seed, digest)
                   != digest]
        for w, seed in changed:
            print(f"digest changed: {w} seed {seed}: "
                  f"{base[w]['digests'][seed]} -> "
                  f"{summary[w]['digests'][seed]}")
        if changed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
