"""Spans around calls into stablecore's layers, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules,
in every stablecore namespace that binds it, with a wrapper that records a
span: name, start, end and parent span. Spans stay in memory in flat arrays
and are written out by ``dump`` when the run ends. Calls of
``harness.check_tree`` are named per claim (``harness.check.C5``).

A span's self time is its duration minus the time covered by its child
spans; aggregates per name are kept as spans close.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "stablecore"
LAYERS = ("graph_model", "independence", "harness", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._child_ns = [0]
        # name id -> [calls, inclusive ns, self ns]
        self.totals: dict[int, list[int]] = {}
        self._saved: list[tuple[dict, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, qualname: str, fn):
        fixed = self._name_id(qualname)
        per_claim = qualname == "harness.check_tree"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = self._name_id(f"harness.check.{args[0]}") if per_claim else fixed
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0)
            self.end.append(0)
            self._stack.append(sid)
            self._child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                child = self._child_ns.pop()
                dur = t1 - t0
                self._child_ns[-1] += dur
                self.start[sid] = t0
                self.end[sid] = t1
                tot = self.totals.get(nid)
                if tot is None:
                    tot = self.totals[nid] = [0, 0, 0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - child

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    if m.__dict__.get(fname) is fn:
                        self._saved.append((m.__dict__, fname, fn))
                        m.__dict__[fname] = wrapper

    def uninstall(self) -> None:
        for namespace, fname, fn in reversed(self._saved):
            namespace[fname] = fn
        self._saved.clear()

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, inclusive ns, self ns) so far."""
        return {self.names[nid]: tuple(t) for nid, t in self.totals.items()}

    def dump(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        arrays = (self.name, self.parent, self.start, self.end)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "itemsize": [a.itemsize for a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)


def load(path: str) -> tuple[list[str], list[tuple[int, int, int, int]]]:
    """Read a dump back as (names, [(name id, parent, start_ns, end_ns), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            a = array(code)
            a.fromfile(fh, header["spans"])
            cols.append(a)
    return header["names"], list(zip(*cols))


def self_time_by_layer(snapshot: dict) -> dict[str, float]:
    """Seconds of self time per layer, from a snapshot."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_ns) in snapshot.items():
        out[name.split(".", 1)[0]] += self_ns / 1e9
    return out


def calls_by_layer(snapshot: dict) -> dict[str, int]:
    out = {layer: 0 for layer in LAYERS}
    for name, (calls, _, _) in snapshot.items():
        out[name.split(".", 1)[0]] += calls
    return out
