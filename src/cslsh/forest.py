"""The LSH Forest data structure: implicit prefix tries over sorted hash strings.

Each of the L trees hashes every point to a K-bit string and keeps the
strings sorted, with the point order beside them. A node of the plain binary
trie over those strings is never stored: the points whose strings share a
length-i prefix are one contiguous range [start, end) of the sorted order, so
a bucket is a slice of the order and its collision count a subtraction.

A tree is its K members, one parameter array; ``ForestTrie`` derives its
strings and order from them, at build and at load alike. ``PrefixCursor``
hashes q against that array once, to its K-bit string, whose two longest
common prefixes l1 >= l2 with the tree's strings fix the whole walk down q's
path in closed form. The trie would stop at a leaf -- a single point, or
depth K -- so a point's pointer lives at the shortest prefix of its string
that is unique in the tree (one more than its second-longest common prefix,
capped at K), exact duplicates are first-class, and the cost of the walk to
any level follows from l1 and l2 alone.
"""

from __future__ import annotations

import struct
from bisect import bisect_left

import numpy as np

from .core import CostCounters, Dataset, FormatError, Metric, RngSeed
from .families import (
    BitSampling,
    HashSpec,
    LshFamily,
    SignRandomProjection,
    pack_strings,
    stack_params,
)


def prefix_range(strings, prefix: int, width: int, K: int) -> tuple[int, int]:
    """The range [start, end) of the sorted K-bit ``strings`` (a memoryview
    or list of ints) whose top ``width`` bits equal ``prefix``."""
    shift = K - width
    start = bisect_left(strings, prefix << shift)
    return start, bisect_left(strings, (prefix + 1) << shift, start)


def common_prefixes(strings, s: int, K: int) -> tuple[int, int]:
    """(l1, l2), the longest and second-longest common prefixes of the K-bit
    string ``s`` with the nonempty sorted K-bit ``strings`` (l2 = -1 when
    there is one string). The common prefix grows up to s's insertion point
    and shrinks from it, so both lie among the two strings on either side."""
    pos = bisect_left(strings, s)
    l1 = l2 = -1
    for x in strings[max(pos - 2, 0) : pos + 2]:
        lcp = K - (x ^ s).bit_length()
        if lcp > l1:
            l1, l2 = lcp, l1
        elif lcp > l2:
            l2 = lcp
    return l1, l2


def sort_strings(strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(point order, sorted strings); equal strings keep ascending point ids."""
    order = np.argsort(strings, kind="stable").astype(np.int64, copy=False)
    return order, strings[order]


class PrefixCursor:
    """q's path down one tree, its cost in closed form.

    q's K-bit string ``qs`` is computed once, when the cursor is made, and
    ``range(i)`` is q's level-i prefix range, memoized per level. The walk
    stops at a single point (whose bits are then compared with q's down to
    the first mismatch) or at an empty range, so with l1 >= l2 the two
    longest common prefixes of qs with the tree's strings (``lcps``), a walk
    to level r costs min(r, l1 + 1) hash evaluations and
    1 + min(r, l2 + 1, l1) node visits. Asking past ``reach``, the deepest
    level asked so far, charges the difference.
    """

    __slots__ = ("tree", "counters", "strings", "qs", "lcps", "reach", "ranges")

    def __init__(self, tree: "ForestTrie", q, counters: CostCounters):
        self.tree = tree
        self.counters = counters
        self.strings = memoryview(tree.sorted_strings)
        self.qs = tree.family.query_string(tree.params, q)
        self.lcps = None
        self.reach = 0
        self.ranges = {}
        counters.nodes_visited += 1

    def range(self, i: int) -> tuple[int, int]:
        """q's level-i range [start, end) in the tree's sorted order."""
        found = self.ranges.get(i)
        if found is None:
            K = self.tree.K
            found = self.ranges[i] = prefix_range(self.strings, self.qs >> (K - i), i, K)
        if i > self.reach:
            r, self.reach = self.reach, i
            if found[1] - found[0] >= 2:
                # i <= l2: every step lands on a node, and l1, l2 are not needed
                self.counters.hash_evaluations += i - r
                self.counters.nodes_visited += i - r
                return found
            if self.lcps is None:
                self.lcps = common_prefixes(self.strings, self.qs, self.tree.K)
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
        return self.tree.order[lo:hi]


class ForestTrie:
    """One tree of the forest: its K members as one parameter array, and the
    dataset's strings under them, sorted, with the point order beside them."""

    __slots__ = ("index", "K", "n", "family", "params", "order", "sorted_strings")

    def __init__(self, index: int, family: LshFamily, params: np.ndarray, dataset: Dataset):
        self.index = index
        self.K = len(params)
        self.n = dataset.n
        self.family = family
        self.params = params
        self.order, self.sorted_strings = sort_strings(pack_strings(self.members, dataset))

    @property
    def members(self) -> list[HashSpec]:
        """The K members as per-member reference hashes, level 1 first."""
        return [HashSpec(self.family, p) for p in self.params]

    def stored_depth(self, point_id: int) -> int:
        """Depth of the leaf holding a point, its shortest unique prefix: one
        more than its string's second-longest common prefix over the tree
        (its own is the longest), capped at K; 0 in a one-point tree."""
        if not 0 <= point_id < self.n:
            raise ValueError(f"point id {point_id} out of range [0, {self.n})")
        strings = memoryview(self.sorted_strings)
        s = strings[int(np.flatnonzero(self.order == point_id)[0])]
        return min(self.K, common_prefixes(strings, s, self.K)[1] + 1)


class Forest:
    """L independent tries of depth K over one dataset, one per parameter
    array of K members in ``params``."""

    def __init__(self, dataset: Dataset, family: LshFamily, seed: RngSeed,
                 params: list[np.ndarray]):
        self.dataset = dataset
        self.family = family
        self.seed = seed
        self.trees = [ForestTrie(j, family, p, dataset) for j, p in enumerate(params)]
        self.K = self.trees[0].K
        self.L = len(self.trees)

    def _static_range(self, j: int, i: int, q,
                      counters: CostCounters | None) -> tuple[ForestTrie, int, int]:
        """Tree j's range [start, end) of q's level-i prefix by a fresh walk,
        at the cost of a static scan: all i hash bits and the nodes on the path.
        Level 0 is the whole tree and costs nothing."""
        if not 1 <= j <= self.L:
            raise ValueError(f"tree index {j} out of range [1, {self.L}]")
        if not 0 <= i <= self.K:
            raise ValueError(f"level {i} out of range [0, {self.K}]")
        q = self.dataset.check_query(q)
        tree = self.trees[j - 1]
        if i == 0:
            return tree, 0, tree.n
        cursor = PrefixCursor(tree, q, CostCounters() if counters is None else counters)
        lo, hi = cursor.range(i)
        if lo == hi:  # the walk ends at level l1 + 1
            cursor.counters.hash_evaluations += i - cursor.lcps[0] - 1
        return tree, lo, hi

    def bucket(self, j: int, i: int, q, counters: CostCounters | None = None) -> np.ndarray:
        """Ids of S_{i,j}(q), the points whose length-i hash prefix in tree j
        (1-indexed) matches q's, in trie order: by hash string, then by id.
        Level 0 is every point."""
        tree, lo, hi = self._static_range(j, i, q, counters)
        if counters is not None:
            counters.buckets_opened += 1
        return tree.order[lo:hi]

    def collision_count(self, j: int, i: int, q, counters: CostCounters | None = None) -> int:
        """|S_{i,j}(q)|, the size of q's level-i range, without enumerating it."""
        _, lo, hi = self._static_range(j, i, q, counters)
        return hi - lo


def build_forest(dataset: Dataset, family: LshFamily, K: int, L: int,
                 seed: RngSeed) -> Forest:
    """Build L tries of depth K; tree j draws its members from the ("tree", j)
    child seed so the structure is deterministic in the seed."""
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    if K > 64:
        raise ValueError("packed strings support at most K = 64 levels")
    family.check_compatible(dataset)
    params = [stack_params(family.sample_members(seed.child("tree", j), K)) for j in range(L)]
    return Forest(dataset, family, seed, params)


def expected_collisions(dataset: Dataset, family: LshFamily, q, i: int) -> float:
    """Analytic expected bucket size at level i: sum over points of the
    collision probability raised to i."""
    if i < 0:
        raise ValueError("level must be nonnegative")
    family.check_compatible(dataset)
    d = dataset.distances_to(dataset.check_query(q))
    p = family.collision_probability_many(d)
    return float(np.sum(p**i)) if i else float(dataset.n)


# ---------------------------------------------------------------------------
# Serialization: versioned binary layout, little-endian throughout.
#
# v3 layout: magic, header (version, n, dim, metric, family, K, L), the seed,
# then per tree only its member parameters (<u4 coordinates or <f8
# directions); loading rehashes the dataset under them. v1 (trie node arrays)
# and v2 (per-tree point order and sorted strings) payloads are rejected.

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
    header = _MAGIC + struct.pack("<I", _VERSION) + struct.pack(
        _HEADER,
        forest.dataset.n,
        forest.dataset.dim,
        _METRIC_CODE[forest.dataset.metric],
        _FAMILY_CODE[forest.family.kind],
        forest.K,
        forest.L,
    )
    parts = [header, _seed_bytes(forest.seed)]
    param_dtype = "<u4" if isinstance(forest.family, BitSampling) else "<f8"
    for tree in forest.trees:
        parts.append(tree.params.astype(param_dtype).tobytes())
    return b"".join(parts)


def _read_params(reader: PayloadReader, family: LshFamily, K: int) -> np.ndarray:
    """One tree's K member parameters, checked to be members of the family."""
    dim = family.dim
    if isinstance(family, BitSampling):
        params = reader.array("<u4", K).astype(np.int64)
        if (params >= dim).any():
            raise FormatError("bit-sampling coordinate out of range")
    else:
        params = reader.array("<f8", K * dim).reshape(K, dim)
        if not np.isfinite(params).all():
            raise FormatError("sign-projection directions are not finite")
    return params


def read_forest_payload(data, dataset: Dataset) -> tuple[LshFamily, RngSeed, list[np.ndarray]]:
    """A forest payload's family, seed and per-tree member parameters, read
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
    params = [_read_params(reader, family, K) for _ in range(L)]
    reader.finish()
    return family, seed, params


def forest_from_bytes(data: bytes, dataset: Dataset) -> Forest:
    return Forest(dataset, *read_forest_payload(data, dataset))


def save_forest(forest: Forest, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(forest_to_bytes(forest))


def load_forest(path: str, dataset: Dataset) -> Forest:
    with open(path, "rb") as fh:
        return forest_from_bytes(fh.read(), dataset)
