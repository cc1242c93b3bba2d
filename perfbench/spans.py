"""In-memory span tracer for the benchmark's traced run.

Layer functions are wrapped from outside: each patch replaces the name where
its caller looks it up (a module global such as ``cslsh.adaptive.choose_level``
or a class attribute such as ``Dataset.distances_to``) and the original is put
back on exit, so the untraced run executes the library unchanged.

A span is (name, parent, root, start, end). Spans are appended to flat arrays
while the run executes and analysed once at the end: a span's self time is
its duration minus the durations of its direct children, which nest inside
it because the tracer keeps a stack.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from cslsh import adaptive, confirmation, core, families, forest, tables

# (owner, attribute, span name): the owner is where the caller looks the name
# up, so the patch is seen by every call the library makes.
LAYER_PATCHES = [
    (adaptive, "choose_level", "adaptive.choose_level"),
    (adaptive, "run_level_pair", "adaptive.run_level_pair"),
    (adaptive, "bottom_up_phase", "adaptive.bottom_up_phase"),
    (adaptive, "build_forest", "forest.build_forest"),
    (forest, "pack_strings", "families.pack_strings"),
    (tables, "pack_strings", "families.pack_strings"),
    (families.HashSpec, "evaluate", "families.evaluate"),
    (confirmation.CsState, "update", "confirmation.update"),
    (tables.HashTable, "__init__", "tables.table_build"),
    (tables.TableSequence, "sample_once", "tables.sample_once"),
    (forest.Forest, "bucket", "forest.bucket"),
    (forest.Forest, "collision_count", "forest.collision_count"),
]

DISTANCES_SPAN = "core.distances_to"


class Tracer:
    """Records spans while installed; ``analyse`` turns them into arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._root = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        # One (root span, rows) entry per distance-kernel call; rows is the
        # id array scanned, or None for a full scan.
        self.scans: list[tuple[int, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._root.append(stack[0] if stack else i)
        self._end.append(0.0)
        stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def _wrap_distances(self, fn):
        nid = self._name_id(DISTANCES_SPAN)
        open_, close, stack, scans = self._open, self._close, self._stack, self.scans

        @functools.wraps(fn)
        def traced(dataset, q, ids=None):
            i = open_(nid)
            try:
                return fn(dataset, q, ids)
            finally:
                close(i)
                scans.append((stack[0] if stack else i, ids))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        patches = [(owner, attr, self._wrap(vars(owner)[attr], name))
                   for owner, attr, name in LAYER_PATCHES]
        patches.append((core.Dataset, "distances_to",
                        self._wrap_distances(core.Dataset.distances_to)))
        try:
            for owner, attr, wrapper in patches:
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def analyse(self) -> "SpanTable":
        if self._stack:
            raise RuntimeError("analyse() called with spans still open")
        return SpanTable(self)


class SpanTable:
    """Recorded spans as arrays, with self times and layer aggregates."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.array(tracer._name, dtype=np.int64)
        self.parent = np.array(tracer._parent, dtype=np.int64)
        self.root = np.array(tracer._root, dtype=np.int64)
        self.start = np.array(tracer._start, dtype=np.float64)
        self.end = np.array(tracer._end, dtype=np.float64)
        self.duration = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.duration[child],
                              minlength=len(self.start))
        self.self_time = self.duration - covered
        self.scans = list(tracer.scans)

    def nesting_violations(self) -> int:
        """Children that start before or end after their parent."""
        c = np.flatnonzero(self.parent >= 0)
        p = self.parent[c]
        bad = (self.start[c] < self.start[p]) | (self.end[c] > self.end[p])
        return int(bad.sum())

    def _select(self, name: str, root: str | None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        mask = self.name == self.names.index(name)
        if root is not None:
            mask &= self.name[self.root] == self._id(root)
        return mask

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def count(self, name: str, root: str | None = None) -> int:
        return int(self._select(name, root).sum())

    def self_seconds(self, name: str, root: str | None = None) -> float:
        return float(self.self_time[self._select(name, root)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._select(name, None)]

    def kernel_rows(self, root: str, n: int) -> tuple[int, int]:
        """(rows scanned, distinct ids summed per root span) for distance
        kernel calls under root spans named ``root``."""
        rid = self._id(root)
        per_root: dict[int, list] = {}
        for r, ids in self.scans:
            if self.name[r] == rid:
                per_root.setdefault(r, []).append(ids)
        rows = distinct = 0
        for scans in per_root.values():
            if any(ids is None for ids in scans):
                rows += sum(n if ids is None else len(ids) for ids in scans)
                distinct += n
            else:
                rows += sum(len(ids) for ids in scans)
                distinct += len(np.unique(np.concatenate(scans)))
        return rows, distinct
