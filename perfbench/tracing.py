"""In-memory span tracer that wraps cwreg's public functions.

Every public function defined in one of the package's modules (the
layers) is replaced by a wrapper that records one span: name, start,
end, parent span and operation id. The wrapper is installed at every
cwreg namespace that holds the function, because callers inside the
package look functions up in their own module globals: ``local.py``
imports ``gaussian_weights`` by name, so patching only
``cwreg.distances`` would miss every call made from ``cwreg.local``.

Spans stay in memory until ``write_spans`` is called at the end of a
run. A span's self time is its duration minus the durations of its
child spans; calls are single-threaded and strictly nested, so the
children never overlap and their durations add up to the time they
cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from time import perf_counter

import numpy as np

PACKAGE = "cwreg"
LAYERS = ("data", "distances", "wls", "local", "ensemble", "models",
          "evaluate", "cli")

# Work counts derived from argument and result shapes. They are
# computed, not measured: `bytes_computed` assumes the kernel reads
# one float64 distance and writes one float64 weight per cell.


def _kernel_counts(result):
    return {"cells": result.size, "bytes_computed": 16 * result.size}


def _batched_counts(result):
    betas, regularized, failed = result
    return {"systems": betas.shape[0], "regularized": int(regularized.sum()),
            "failed": int(failed.sum())}


COUNTERS = {
    "distances.gaussian_weights": _kernel_counts,
    "distances.geographic_distances": lambda result: {"cells": result.size},
    "wls.solve_wls_batched": _batched_counts,
    "local.predict_at": lambda result: {"rows": result.shape[0]},
}

# Units per operation; "-calc" marks the counts computed from shapes.
COUNT_UNITS = {
    "cells": "cells-calc/op",
    "bytes_computed": "B-calc/op",
    "systems": "systems-calc/op",
    "regularized": "systems/op",
    "failed": "systems/op",
    "rows": "rows/op",
}


class Tracer:
    """Records spans of the cwreg calls made inside `run_operation`."""

    def __init__(self):
        self._names: list[str] = []
        self._name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._op: list[int] = []
        self._stack = [-1]
        self._op_root: list[int] = []
        self._counts: dict[tuple[int, str], int] = {}
        self._patches = self._build_patches()

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _build_patches(self):
        pkg = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        patches = []
        for ns in (pkg, *modules.values()):
            for attr, value in vars(ns).items():
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((ns, attr, value, wrappers[value]))
        return patches

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[sid] = perf_counter()
                self._stack.pop()
            if counter is not None:
                root = self._op_root[-1]
                for stat, value in counter(result).items():
                    key = (root, f"{name}.{stat}")
                    self._counts[key] = self._counts.get(key, 0) + value
            return result

        return wrapper

    def _begin(self, nid: int) -> int:
        sid = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._op.append(len(self._op_root) - 1)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(perf_counter())
        return sid

    def _install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def _remove(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def run_operation(self, root_name: str, fn):
        """Call fn with the wrappers installed, under one root span.

        Every call with the same root name is one sample of that phase
        (for example the set-up or the measured operation).
        """
        nid = self._name_id(root_name)
        self._op_root.append(nid)
        self._install()
        sid = self._begin(nid)
        try:
            return fn()
        finally:
            self._end[sid] = perf_counter()
            self._stack.pop()
            self._remove()

    def _arrays(self):
        name = np.asarray(self._name, dtype=np.int64)
        start = np.asarray(self._start)
        dur = np.asarray(self._end) - start
        parent = np.asarray(self._parent, dtype=np.int64)
        op = np.asarray(self._op, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return name, dur, dur - child, parent, op

    def layer_stats(self, root_name: str):
        """Mean per root of one phase: calls, self seconds and counts.

        Returns (number of roots, {function: {"calls", "self_s"}},
        {function.stat: count}) over the spans under roots named
        `root_name`; the root itself appears under its own name.
        """
        if root_name not in self._names:
            return 0, {}, {}
        rid = self._names.index(root_name)
        name, _, self_s, _, op = self._arrays()
        in_phase = np.asarray(self._op_root, dtype=np.int64)[op] == rid
        n_roots = self._op_root.count(rid)
        size = len(self._names)
        calls = np.bincount(name[in_phase], minlength=size) / n_roots
        totals = np.bincount(name[in_phase], weights=self_s[in_phase],
                             minlength=size) / n_roots
        stats = {label: {"calls": float(calls[i]), "self_s": float(totals[i])}
                 for i, label in enumerate(self._names) if calls[i] > 0}
        counts = {key: value / n_roots
                  for (root, key), value in self._counts.items() if root == rid}
        return n_roots, stats, counts

    def root_balance(self) -> list[tuple[float, float]]:
        """(root duration, sum of self times under it) for every root."""
        _, dur, self_s, parent, op = self._arrays()
        roots = np.flatnonzero(parent < 0)
        totals = np.bincount(op, weights=self_s, minlength=len(self._op_root))
        return [(float(dur[r]), float(totals[op[r]])) for r in roots]

    def write_spans(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid in range(len(self._start)):
                fh.write(json.dumps({
                    "id": sid,
                    "name": self._names[self._name[sid]],
                    "start": self._start[sid],
                    "end": self._end[sid],
                    "parent": self._parent[sid],
                    "op": self._op[sid],
                }) + "\n")
        return len(self._start)
