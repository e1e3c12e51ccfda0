"""Spans around calls into spanfact's public functions, for the traced run.

A wrapper is installed where the caller looks the function up: in every
other spanfact module that imported it, plus the function's own module for
the lookups in HOME_LOOKUPS, which are made through the module at call
time.  Calls a module makes to its own functions are not wrapped, so they
count as the caller's self time; so do calls into perm, which are too
fine-grained to wrap.

Spans are kept in memory as columns (name, parent, call, start, end) and
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "groups", "fixtures", "digraph", "blocks", "spanning", "treesearch")
HOME_LOOKUPS = frozenset({
    "cli.load_instance",
    "cli.emit_table",
    "digraph.build_coset_digraph",
    "groups.coset_space",
    "spanning.search_sharply_transitive",
    "spanning.verify_sharply_transitive",
    "treesearch.run_search",
})
# counts read from public arguments and return values: span name -> (counter, reader)
COUNTERS = {
    "cli.emit_table": (("rows", lambda args, res: len(args[0])),),
    "digraph.enumerate_factorizations": (("items", lambda args, res: len(res)),),
    "digraph.classify_factorizations": (("classes", lambda args, res: len(res)),),
    # run_search returns (size, witness, nodes, certified, kernel)
    "treesearch.run_search": (
        ("nodes", lambda args, res: res[2]),
        ("certified", lambda args, res: int(bool(res[3]))),
    ),
}
COLUMNS = (("name", "H"), ("parent", "q"), ("call", "q"), ("start", "d"), ("end", "d"))


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.name_ids: dict[str, int] = {}
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.stack = [-1]
        self.call_id = -1
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """fn with a span named name around each call."""
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        readers = COUNTERS.get(name, ())
        names, parents, calls = self.cols["name"], self.cols["parent"], self.cols["call"]
        starts, ends = self.cols["start"], self.cols["end"]
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(tracer.call_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            for counter, read in readers:
                tracer.counts[f"{name}.{counter}"] += read(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        modules = {layer: sys.modules[f"spanfact.{layer}"] for layer in LAYERS}
        for layer, home in modules.items():
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                name = f"{layer}.{attr}"
                sites = [m for m in modules.values() if m is not home and vars(m).get(attr) is fn]
                if name in HOME_LOOKUPS:
                    sites.append(home)
                if not sites:
                    continue
                traced = self.wrap(name, fn)
                for m in sites:
                    self._installed.append((m, attr, fn))
                    setattr(m, attr, traced)

    def uninstall(self) -> None:
        while self._installed:
            m, attr, fn = self._installed.pop()
            setattr(m, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total inclusive seconds, self seconds and calls."""
        starts, ends, parents = self.cols["start"], self.cols["end"], self.cols["parent"]
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        names = list(self.name_ids)
        for i, nid in enumerate(self.cols["name"]):
            agg = out[names[nid]]
            agg["s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
            agg["calls"] += 1
        return out

    def write(self, path) -> None:
        header = {
            "run_id": self.run_id,
            "names": list(self.name_ids),
            "columns": [[col, code] for col, code in COLUMNS],
            "count": len(self.cols["end"]),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in COLUMNS:
                self.cols[col].tofile(fh)


def load_spans(path) -> tuple[dict, dict[str, array]]:
    """Read a span file back as (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in header["columns"]:
            cols[col] = array(code)
            cols[col].fromfile(fh, header["count"])
    return header, cols
