"""Spans around walkup's public functions, installed from outside the program.

Every public function of the traced modules is replaced by a wrapper that
records one span per call: name, parent span, start and end.  The wrapper is
bound wherever any loaded walkup module holds the original function object,
so a module that imported the function by name (``from .isomorphism import
canonical_form``) calls the wrapper too.  Spans stay in memory in flat
arrays and are written out once, by :meth:`Tracer.write`.

A layer's self time is its spans' durations less the time their child spans
cover.  Names that the benchmark's metrics need but that are absent from the
program are listed in :attr:`Tracer.missing`; their metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# modules whose public functions are wrapped; core contributes only SimplicialComplex.link
TRACED_MODULES = ("recognition", "homology", "isomorphism", "bistellar", "enumeration")

# span names the per-layer metrics read
REQUIRED = (
    "enumeration.enumerate_neighbourly_9_manifolds",
    "core.link",
    "bistellar.classify_face",
    "bistellar.proper_moves",
    "bistellar.apply_move",
    "isomorphism.canonical_form",
    "isomorphism.automorphism_group",
    "homology.homology",
    "recognition.recognition_report",
    "recognition.is_combinatorial_3_manifold",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.removable = 0  # classify_face results with status REMOVABLE
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the traced modules and SimplicialComplex.link."""
        import importlib

        replacements = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"walkup.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                replacements[obj] = self._wrap(f"{short}.{attr}", obj)
        complex_type = importlib.import_module("walkup.core").SimplicialComplex
        if inspect.isfunction(getattr(complex_type, "link", None)):
            complex_type.link = self._wrap("core.link", complex_type.link)
        bistellar = sys.modules["walkup.bistellar"]
        classify_face = getattr(bistellar, "classify_face", None)
        if classify_face in replacements:
            removable = getattr(bistellar, "REMOVABLE", "removable")
            traced = replacements[classify_face]

            @functools.wraps(classify_face)
            def counting(*args, **kwargs):
                result = traced(*args, **kwargs)
                if result[0] == removable:
                    self.removable += 1
                return result

            replacements[classify_face] = counting
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "walkup" and not mod_name.startswith("walkup."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])
        self.missing = [name for name in REQUIRED if name not in self.name_ids]

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, entries from another module, total and self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        ids, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        module_of = [name.split(".", 1)[0] for name in self.names]
        table = {name: {"calls": 0, "entries": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[ids[i]]]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
            p = parents[i]
            if p < 0 or module_of[ids[p]] != module_of[ids[i]]:
                row["entries"] += 1
        return table

    def write(self, stem: Path) -> None:
        """Write `<stem>.spans` (int32 name ids, int32 parents, float64
        starts, float64 ends, column after column) and `<stem>.trace.json`."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{stem}.spans", "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "missing": self.missing,
            "removable": self.removable,
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "aggregate": self.aggregate(),
        }
        with open(f"{stem}.trace.json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
