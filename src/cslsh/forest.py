"""The LSH Forest data structure: implicit prefix tries over sorted hash strings.

Each of the L trees hashes every point to a K-bit string and keeps the
strings sorted, with the point order beside them. A node of the plain binary
trie over those strings is never stored: the points whose strings share a
length-i prefix are one contiguous range [start, end) of the sorted order, so
a bucket is a slice of the order and its collision count a subtraction.

A forest is three stacked arrays, and tree j is row j of each: ``params``,
the K members of every tree (``(L, K)`` coordinates or ``(L, K, dim)``
directions); ``order``, the ``(L, n)`` point order; and ``strings``, the
``(L, n)`` sorted strings in the narrowest unsigned type that holds K bits.
The strings and order are derived from the members, at build and at load
alike; an adaptive ensemble is one forest of R * L' rows, and ``rows`` views
a run of them. ``PrefixCursor`` hashes q against one row of ``params`` once,
to its K-bit string, whose two longest common prefixes l1 >= l2 with that
row's strings fix the whole walk down q's path in closed form. The trie
would stop at a leaf -- a single point, or depth K -- so a point's pointer
lives at the shortest prefix of its string that is unique in the tree (one
more than its second-longest common prefix, capped at K), exact duplicates
are first-class, and the cost of the walk to any level follows from l1 and
l2 alone.
"""

from __future__ import annotations

import copy
import struct
from bisect import bisect_left

import numpy as np

from .core import CostCounters, Dataset, FormatError, Metric, RngSeed
from .families import BitSampling, LshFamily, SignRandomProjection, pack_strings


def prefix_range(strings, prefix: int, width: int, K: int,
                 lo: int = 0, hi: int | None = None) -> tuple[int, int]:
    """The range [start, end) of the sorted K-bit ``strings`` (a memoryview
    or list of ints), searched between positions ``lo`` and ``hi``, whose
    top ``width`` bits equal ``prefix``."""
    shift = K - width
    start = bisect_left(strings, prefix << shift, lo, hi)
    return start, bisect_left(strings, (prefix + 1) << shift, start, hi)


def common_prefixes(strings, s: int, K: int, lo: int, hi: int) -> tuple[int, int]:
    """(l1, l2), the longest and second-longest common prefixes of the K-bit
    string ``s`` with the nonempty sorted K-bit ``strings[lo:hi]`` (l2 = -1
    when there is one string). The common prefix grows up to s's insertion
    point and shrinks from it, so both lie among the two strings on either side."""
    pos = bisect_left(strings, s, lo, hi)
    l1 = l2 = -1
    for x in strings[max(pos - 2, lo) : min(pos + 2, hi)]:
        lcp = K - (x ^ s).bit_length()
        if lcp > l1:
            l1, l2 = lcp, l1
        elif lcp > l2:
            l2 = lcp
    return l1, l2


def string_dtype(K: int) -> np.dtype:
    """The narrowest unsigned type that holds K-bit strings."""
    return np.min_scalar_type((1 << K) - 1)


def sort_strings(strings: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(point order, sorted strings) of K-bit ``strings``, the sorted strings
    in ``string_dtype(K)``; equal strings keep ascending point ids."""
    strings = strings.astype(string_dtype(K), copy=False)
    order = np.argsort(strings, kind="stable").astype(np.int64, copy=False)
    return order, strings[order]


class PrefixCursor:
    """q's path down row j (0-based) of a forest, its cost in closed form.

    q's K-bit string ``qs`` is computed once, when the cursor is made, and
    ``range(i)`` is q's level-i prefix range, memoized per level. The walk
    stops at a single point (whose bits are then compared with q's down to
    the first mismatch) or at an empty range, so with l1 >= l2 the two
    longest common prefixes of qs with the tree's strings (``lcps``), a walk
    to level r costs min(r, l1 + 1) hash evaluations and
    1 + min(r, l2 + 1, l1) node visits. Asking past ``reach``, the deepest
    level asked so far, charges the difference.
    """

    __slots__ = ("counters", "strings", "lo", "hi", "K", "order", "qs", "lcps", "reach",
                 "ranges")

    def __init__(self, forest: "Forest", j: int, q, counters: CostCounters):
        self.counters = counters
        self.strings = forest.flat_strings
        self.lo = j * forest.n  # row j's bounds in the flat strings
        self.hi = self.lo + forest.n
        self.K = forest.K
        self.order = forest.order[j]
        self.qs = forest.family.query_string(forest.params[j], q)
        self.lcps = None
        self.reach = 0
        self.ranges = {}
        counters.nodes_visited += 1

    def range(self, i: int) -> tuple[int, int]:
        """q's level-i range [start, end) in the tree's sorted order."""
        found = self.ranges.get(i)
        if found is None:
            lo, K = self.lo, self.K
            start, end = prefix_range(self.strings, self.qs >> (K - i), i, K, lo, self.hi)
            found = self.ranges[i] = (start - lo, end - lo)
        if i > self.reach:
            r, self.reach = self.reach, i
            if found[1] - found[0] >= 2:
                # i <= l2: every step lands on a node, and l1, l2 are not needed
                self.counters.hash_evaluations += i - r
                self.counters.nodes_visited += i - r
                return found
            if self.lcps is None:
                self.lcps = common_prefixes(self.strings, self.qs, self.K, self.lo, self.hi)
            l1, l2 = self.lcps
            cap = min(l2 + 1, l1)
            self.counters.hash_evaluations += min(i, l1 + 1) - min(r, l1 + 1)
            self.counters.nodes_visited += min(i, cap) - min(r, cap)
        return found

    def count(self, i: int) -> int:
        lo, hi = self.range(i)
        return hi - lo

    def bucket(self, i: int) -> np.ndarray:
        lo, hi = self.range(i)
        return self.order[lo:hi]


def check_shape(L: int, K: int) -> None:
    """Refuse a forest shape before anything is sampled: it needs L >= 1
    trees of 1 <= K <= 64 levels, since a string is one unsigned word."""
    if L < 1 or not 1 <= K <= 64:
        raise ValueError(f"a forest needs L >= 1 trees of 1 <= K <= 64 levels, not L={L}, K={K}")


class Forest:
    """L independent tries of depth K over one dataset: tree j is row j of
    the stacked member ``params``, point ``order`` and sorted ``strings``."""

    def __init__(self, dataset: Dataset, family: LshFamily, seed: RngSeed, params: np.ndarray):
        if params.ndim < 2:
            raise ValueError(f"forest parameters must be one row per tree and level, "
                             f"not of shape {params.shape}")
        check_shape(*params.shape[:2])
        family.check_compatible(dataset)
        self.dataset = dataset
        self.family = family
        self.seed = seed
        self.params = params
        self.L, self.K = params.shape[:2]
        self.n = dataset.n
        # Rows are written in place, so no row's arrays outlive its sort.
        self.order = np.empty((self.L, self.n), np.int64)
        self.strings = np.empty((self.L, self.n), string_dtype(self.K))
        for j, p in enumerate(params):
            self.order[j], self.strings[j] = sort_strings(pack_strings(family, p, dataset), self.K)
        self.flat_strings = memoryview(self.strings.reshape(-1))

    def rows(self, start: int, stop: int) -> "Forest":
        """Trees start..stop-1 as a forest of their own, sharing this one's
        arrays: nothing is hashed or copied."""
        view = copy.copy(self)
        view.params, view.order, view.strings = (
            a[start:stop] for a in (self.params, self.order, self.strings))
        view.L = len(view.params)
        view.flat_strings = memoryview(view.strings.reshape(-1))
        return view

    def stored_depth(self, j: int, point_id: int) -> int:
        """Depth of the leaf holding a point in row j (0-based), its shortest
        unique prefix: one more than its string's second-longest common prefix
        over the tree (its own is the longest), capped at K; 0 in a one-point tree."""
        if not 0 <= j < self.L:
            raise ValueError(f"tree row {j} out of range [0, {self.L})")
        if not 0 <= point_id < self.n:
            raise ValueError(f"point id {point_id} out of range [0, {self.n})")
        lo = j * self.n
        s = self.flat_strings[lo + int(np.flatnonzero(self.order[j] == point_id)[0])]
        return min(self.K, common_prefixes(self.flat_strings, s, self.K, lo, lo + self.n)[1] + 1)

    def _static_range(self, j: int, i: int, q, counters: CostCounters | None) -> tuple[int, int]:
        """Tree j's range [start, end) of q's level-i prefix by a fresh walk,
        at the cost of a static scan: all i hash bits and the nodes on the path.
        Level 0 is the whole tree and costs nothing."""
        if not 1 <= j <= self.L:
            raise ValueError(f"tree index {j} out of range [1, {self.L}]")
        if not 0 <= i <= self.K:
            raise ValueError(f"level {i} out of range [0, {self.K}]")
        q = self.dataset.check_query(q)
        if i == 0:
            return 0, self.n
        cursor = PrefixCursor(self, j - 1, q, CostCounters() if counters is None else counters)
        lo, hi = cursor.range(i)
        if lo == hi:  # the walk ends at level l1 + 1
            cursor.counters.hash_evaluations += i - cursor.lcps[0] - 1
        return lo, hi

    def bucket(self, j: int, i: int, q, counters: CostCounters | None = None) -> np.ndarray:
        """Ids of S_{i,j}(q), the points whose length-i hash prefix in tree j
        (1-indexed) matches q's, in trie order: by hash string, then by id.
        Level 0 is every point."""
        lo, hi = self._static_range(j, i, q, counters)
        if counters is not None:
            counters.buckets_opened += 1
        return self.order[j - 1, lo:hi]

    def collision_count(self, j: int, i: int, q, counters: CostCounters | None = None) -> int:
        """|S_{i,j}(q)|, the size of q's level-i range, without enumerating it."""
        lo, hi = self._static_range(j, i, q, counters)
        return hi - lo


def build_forest(dataset: Dataset, family: LshFamily, K: int, L: int,
                 seed: RngSeed) -> Forest:
    """Build L tries of depth K; tree j draws its members from the ("tree", j)
    child seed so the structure is deterministic in the seed."""
    check_shape(L, K)
    params = np.array([family.sample_params(seed.child("tree", j), K) for j in range(L)])
    return Forest(dataset, family, seed, params)


# ---------------------------------------------------------------------------
# Serialization: versioned binary layout, little-endian throughout.
#
# v3 layout: magic, header (version, n, dim, metric, family, K, L), the seed,
# then the stacked member parameters of all L trees, tree by tree (<u4
# coordinates or <f8 directions, the bytes of the forest's ``params``);
# loading rehashes the dataset under them. An ensemble payload ends in one
# such payload of all its trees. v1 (trie node arrays) and v2 (per-tree point
# order and sorted strings) payloads are rejected.

_MAGIC = b"CSLSHFOR"
_VERSION = 3
_HEADER = "<QIBBII"  # n, dim, metric, family, K, L
_METRIC_CODE = {Metric.HAMMING: 0, Metric.EUCLIDEAN: 1, Metric.ANGULAR: 2}
_METRIC_FROM = {v: k for k, v in _METRIC_CODE.items()}
_FAMILY_CODE = {"bit-sampling": 0, "sign-random-projection": 1}
_FAMILY_FROM = {_FAMILY_CODE[c.kind]: c for c in (BitSampling, SignRandomProjection)}


class PayloadReader:
    """Bounds-checked reads from a serialized payload: running past its end
    or leaving bytes unread is a FormatError."""

    def __init__(self, data, what: str):
        self.buf = memoryview(data)
        self.off = 0
        self.what = what

    def take(self, size: int) -> memoryview:
        end = self.off + size
        if end > len(self.buf):
            raise FormatError(f"truncated {self.what} payload")
        out = self.buf[self.off : end]
        self.off = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).astype(dt.newbyteorder("="))

    def magic_and_version(self, magic: bytes, version: int) -> None:
        if bytes(self.buf[: len(magic)]) != magic:
            raise FormatError(f"not a serialized {self.what} (bad magic)")
        self.take(len(magic))
        (got,) = self.unpack("<I")
        if got != version:
            raise FormatError(f"unsupported {self.what} format version {got}")

    def rest(self) -> memoryview:
        return self.take(len(self.buf) - self.off)

    def finish(self) -> None:
        if self.off != len(self.buf):
            raise FormatError(f"trailing bytes after {self.what} payload")


def _seed_bytes(seed: RngSeed) -> bytes:
    out = [struct.pack("<QI", seed.master & 0xFFFFFFFFFFFFFFFF, len(seed.path))]
    for tag, idx in seed.path:
        raw = tag.encode()
        out.append(struct.pack("<H", len(raw)) + raw + struct.pack("<Q", idx))
    return b"".join(out)


def _read_seed(reader: PayloadReader) -> RngSeed:
    master, plen = reader.unpack("<QI")
    path = []
    for _ in range(plen):
        (tlen,) = reader.unpack("<H")
        raw = bytes(reader.take(tlen))
        try:
            tag = raw.decode()
        except UnicodeDecodeError as exc:
            raise FormatError("seed tag is not valid UTF-8") from exc
        (idx,) = reader.unpack("<Q")
        path.append((tag, idx))
    return RngSeed(master, tuple(path))


def forest_to_bytes(forest: Forest) -> bytes:
    """The v3 payload of a forest: its header, seed and member parameters."""
    ds = forest.dataset
    header = _MAGIC + struct.pack("<I", _VERSION) + struct.pack(
        _HEADER, ds.n, ds.dim, _METRIC_CODE[ds.metric], _FAMILY_CODE[forest.family.kind],
        forest.K, forest.L,
    )
    param_dtype = "<u4" if isinstance(forest.family, BitSampling) else "<f8"
    return header + _seed_bytes(forest.seed) + forest.params.astype(param_dtype).tobytes()


def read_forest_payload(data, dataset: Dataset) -> tuple[LshFamily, RngSeed, np.ndarray]:
    """A forest payload's family, seed and stacked member parameters, read
    and checked to the last byte; nothing is hashed yet."""
    reader = PayloadReader(data, "forest")
    reader.magic_and_version(_MAGIC, _VERSION)
    n, dim, mcode, fcode, K, L = reader.unpack(_HEADER)
    if mcode not in _METRIC_FROM or fcode not in _FAMILY_FROM:
        raise FormatError(f"unknown metric code {mcode} or family code {fcode}")
    if n != dataset.n or dim != dataset.dim or _METRIC_FROM[mcode] is not dataset.metric:
        raise FormatError("forest does not match the provided dataset")
    family: LshFamily = _FAMILY_FROM[fcode](dim)
    if family.metric is not dataset.metric:
        raise FormatError(f"{family.kind} family does not fit the {dataset.metric.value} metric")
    if not (1 <= K <= 64 and L >= 1):
        raise FormatError(f"bad forest shape K={K} L={L}")
    seed = _read_seed(reader)
    if isinstance(family, BitSampling):
        params = reader.array("<u4", L * K).astype(np.int64).reshape(L, K)
        if (params >= dim).any():
            raise FormatError("bit-sampling coordinate out of range")
    else:
        params = reader.array("<f8", L * K * dim).reshape(L, K, dim)
    reader.finish()
    if isinstance(family, SignRandomProjection):
        # |<x, d>| <= max_k |d_k| * |x|_1, so below the float64 maximum no
        # inner product of a direction with a data row overflows; NaN fails too.
        bound = float(np.abs(params).max()) * float(np.abs(dataset.reals).sum(axis=1).max())
        if not bound < np.finfo(np.float64).max:
            raise FormatError("sign-projection directions are not finite, or large "
                              "enough to overflow an inner product with the data")
    return family, seed, params


def forest_from_bytes(data: bytes, dataset: Dataset) -> Forest:
    return Forest(dataset, *read_forest_payload(data, dataset))


def save_forest(forest: Forest, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(forest_to_bytes(forest))


def load_forest(path: str, dataset: Dataset) -> Forest:
    with open(path, "rb") as fh:
        return forest_from_bytes(fh.read(), dataset)
