"""Runs one workload in a process of its own and writes its result file.

run.py starts this script so that the peak resident set size belongs to
the workload alone. It imports cwreg from the checkout's `src`, sets the
workload up `setup_reps` times (the median is `setup_s`), then runs
operations back to back in a closed loop with one caller until
`--seconds` have passed. Every operation is checked for correctness
outside the timed region.

With `--trace 1` the set-ups and every second operation run with the
span tracer installed; the other operations run bare, so the run also
yields the tracing overhead. Spans are written out when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cwreg  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(),
    }


def measure(wl, seconds: float, tracer):
    """Closed loop: one operation after another until `seconds` pass."""
    op_s, traced_s, failures = [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while (not op_s or (tracer is not None and not traced_s)
           or perf_counter() < deadline):
        traced = tracer is not None and len(op_s) > len(traced_s)
        t0 = perf_counter()
        try:
            if traced:
                result = tracer.run_operation(f"{wl.name}.operation",
                                              wl.operation)
            else:
                result = wl.operation()
        except Exception as err:  # a raising operation is a failed one
            elapsed = perf_counter() - t0
            n, bad, messages = (wl.requests_per_operation(),
                                wl.requests_per_operation(),
                                [f"{type(err).__name__}: {err}"])
        else:
            elapsed = perf_counter() - t0
            n, bad, messages = wl.check(result)
        (traced_s if traced else op_s).append(elapsed)
        attempted += n
        failed += bad
        failures.extend(messages[:max(0, 10 - len(failures))])
    return op_s, traced_s, attempted, failed, failures


def layer_metrics(tracer, name: str, op_s, traced_s) -> dict:
    """Per-layer metrics: name -> (value, unit), means per operation."""
    n_ops, stats, counts = tracer.layer_stats(f"{name}.operation")
    out = {}
    for fn in sorted(stats):
        out[f"{fn}.calls"] = (stats[fn]["calls"], "calls/op")
        out[f"{fn}.self_s"] = (stats[fn]["self_s"], "s/op")
    for key, value in sorted(counts.items()):
        out[key] = (value, tracing.COUNT_UNITS[key.rsplit(".", 1)[1]])
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (sum(
            (st["self_s"] for fn, st in stats.items()
             if fn.startswith(layer + ".")), 0.0), "s/op")
    systems = counts.get("wls.solve_wls_batched.systems", 0)
    bad = counts.get("wls.solve_wls_batched.failed", 0)
    out["wls.solve_wls_batched.ok_ratio"] = (
        1.0 - bad / systems if systems else 1.0, "ratio")
    _, setup_stats, _ = tracer.layer_stats(f"{name}.setup")
    for fn, st in sorted(setup_stats.items()):
        out[f"setup.{fn}.self_s"] = (st["self_s"], "s/setup")
    out["trace_overhead_pct"] = (
        (statistics.median(traced_s) / statistics.median(op_s) - 1.0) * 100,
        "%")
    out["traced_operations"] = (n_ops, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if Path(cwreg.__file__).resolve().parent != ROOT / "src" / "cwreg":
        print(f"cwreg imported from {cwreg.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    size = workloads.SIZES[args.size]
    wl = workloads.WORKLOADS[args.workload](args.seed, size, workdir)
    tracer = tracing.Tracer() if args.trace else None

    setup_s = []
    for _ in range(wl.setup_reps):
        t0 = perf_counter()
        if tracer is not None:
            tracer.run_operation(f"{wl.name}.setup", wl.setup)
        else:
            wl.setup()
        setup_s.append(perf_counter() - t0)

    op_s, traced_s, attempted, failed, failures = measure(
        wl, args.seconds, tracer)
    doc = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_block(),
        "digest": wl.digest(),
        "setup_s": setup_s,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        doc["summary"] = {k: list(v) for k, v in wl.summary(op_s).items()}
    else:
        doc["layers"] = {k: list(v) for k, v in layer_metrics(
            tracer, wl.name, op_s, traced_s).items()}
        doc["root_balance"] = tracer.root_balance()
        spans = workdir / f"spans-{wl.name}-s{args.seed}.jsonl.gz"
        doc["spans"] = {"path": str(spans.relative_to(ROOT)),
                        "count": tracer.write_spans(spans)}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
