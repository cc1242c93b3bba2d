"""The benchmark's workloads: generated instances and the system each runs.

A workload's instance is generated from the workload seed alone; the library
under test receives only the generated arrays. Ground truth is recomputed here
by an exact scan that shares no code with the library's kernels.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import sys
import types
from dataclasses import dataclass

import numpy as np

from cslsh import (
    AdaptiveConfig,
    Dataset,
    Metric,
    RngSeed,
    TableSequence,
    adaptive_nearest_neighbor,
    build_ensemble,
)
from cslsh.adaptive import ensemble_to_bytes, forests_for
from cslsh.data import InstanceSpec, generate
from cslsh.families import family_for_metric
from cslsh.tables import default_k_cat

TABLE_DELTA = 1 / 8   # table-sequence recall guarantee 1 - delta
TABLE_L_MAX = 4096
# The default width rule (expected bucket size at most one) gives 17 for
# uniform 64-bit data at n = 16384, but its 256-pair estimate lands on 16, 17
# or 18 depending on the seed, which moves work and memory by seed. The set-up
# still runs the rule, so that its cost is measured, but the sequence is built
# with this fixed width.
TABLE_K_CAT = 17
# Memory is measured on a fresh sequence grown to this many tables, about what one
# pass builds. A pass builds as many tables as its most demanding query needs,
# a maximum that moves by about 16 % from seed to seed.
FOOTPRINT_TABLES = 64


@dataclass(frozen=True)
class Size:
    """Instance and pass sizes of one workload at one benchmark size."""

    n: int
    queries: int          # distinct queries in the instance
    trace_queries: int    # queries run in each pass of the traced run
    setup_reps: int       # at least this many timed set-ups; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str             # "forest" (adaptive query) or "tables" (table sequence)
    instance: str         # cslsh.data instance kind
    dim: int
    sizes: dict           # "full" / "tiny" -> Size
    K: int = 0            # forest depth
    l_prime: int = 0      # trees per forest
    query_flips: int = 0  # tables: bits flipped in each query copied from the data


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-forest",
            why="planted NN in Hamming space; the adaptive query ends in the for-loop "
                "near level 11, so hashing, trie walks and the trie build dominate",
            kind="forest", instance="planted-nn", dim=32, K=16, l_prime=8,
            sizes={"full": Size(8192, 64, 48, 3), "tiny": Size(256, 6, 4, 2)},
        ),
        Workload(
            name="angular-bottomup",
            why="gaussian angular data; every query falls through to the bottom-up "
                "phase near level 2, so the float distance kernel over large buckets dominates",
            kind="forest", instance="gaussian-angular", dim=64, K=32, l_prime=8,
            sizes={"full": Size(512, 64, 24, 3), "tiny": Size(128, 6, 4, 2)},
        ),
        Workload(
            name="uniform-tables",
            why="uniform Hamming data, table-sequence query on a fresh lazy sequence "
                "per pass: table builds and sample_once, no forest or adaptive code",
            kind="tables", instance="uniform-hamming", dim=64, query_flips=6,
            sizes={"full": Size(16384, 1000, 200, 5), "tiny": Size(512, 8, 8, 3)},
        ),
    )
}


@dataclass
class Instance:
    dataset: Dataset
    queries: list
    truth: np.ndarray


def _hamming_truth(words: np.ndarray, q: np.ndarray) -> int:
    d = np.bitwise_count(words ^ q).sum(axis=1)
    return int(np.argmin(d))  # first minimum: ties go to the smallest id


def _angular_truth(reals: np.ndarray, q: np.ndarray) -> int:
    cos = (reals @ q) / (np.linalg.norm(reals, axis=1) * np.linalg.norm(q))
    return int(np.argmax(cos))


def make_instance(w: Workload, size: Size, seed: int) -> Instance:
    """Generate the workload's dataset, queries and exact ground truth."""
    spec = InstanceSpec(w.instance, size.n, w.dim, size.queries, seed,
                        queries_from_data=w.query_flips > 0)
    inst = generate(spec)
    ds = inst.dataset
    queries = [np.array(inst.query(k)) for k in range(size.queries)]
    if w.query_flips:
        # Copies of data points with a few bits flipped: the NN is the source
        # point or closer, far ahead of the rest, so the 1 - delta guarantee
        # leaves no misses on this workload.
        rng = np.random.default_rng([seed, 0x7AB1E5])
        for q in queries:
            for bit in rng.choice(w.dim, size=w.query_flips, replace=False):
                q[bit // 64] ^= np.uint64(1) << np.uint64(bit % 64)
    if ds.metric is Metric.HAMMING:
        truth = np.array([_hamming_truth(ds.words, q) for q in queries])
    else:
        truth = np.array([_angular_truth(ds.reals, q) for q in queries])
    if not w.query_flips and not np.array_equal(truth, inst.ground_truth):
        raise RuntimeError("generator ground truth disagrees with the exact scan")
    return Instance(ds, queries, truth)


# Shared program state, not data of an index: never followed by reachable_bytes.
_PROGRAM_STATE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
                  types.MethodType, types.CodeType)


def reachable_bytes(roots) -> int:
    """Bytes of every object reachable from roots, each counted once
    (sys.getsizeof, which includes the buffer of an array that owns its data;
    a view's base is followed). Classes, modules and functions are not."""
    seen = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _PROGRAM_STATE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)
    return total


class _System:
    """What both systems share: the inputs, and the memory an index adds to them."""

    def __init__(self, inst: Instance):
        self.dataset = inst.dataset
        self.family = family_for_metric(self.dataset.metric, self.dataset.dim)
        # Taken before any build, so that whatever a build attaches to the
        # dataset or the family counts toward the index.
        self._input_bytes = reachable_bytes([self.dataset, self.family])

    def retained_bytes(self, index) -> int:
        """Bytes reachable from the index beyond those of the inputs."""
        return reachable_bytes([index, self.dataset, self.family]) - self._input_bytes


class ForestSystem(_System):
    """The adaptive forest query over a prebuilt ensemble."""

    fresh_per_pass = False  # passes share the index set up before them

    def __init__(self, w: Workload, inst: Instance, seed: int):
        super().__init__(inst)
        self.K = w.K
        self.l_prime = w.l_prime
        self.seed = RngSeed(seed).child("bench-index")

    def setup(self):
        L = forests_for(self.dataset.n, AdaptiveConfig()) * self.l_prime
        return build_ensemble(self.dataset, self.family, self.K, L, self.seed,
                              l_prime=self.l_prime)

    @staticmethod
    def query(index, q):
        r = adaptive_nearest_neighbor(index, q)
        report = {"point": r.point, "level": r.level, "phase": r.phase,
                  "rounds_spread": r.rounds_spread, **dataclasses.asdict(r.counters)}
        return r.point, report

    def footprint(self, index) -> tuple[int, int]:
        """(bytes the built ensemble retains, bytes of its file form)."""
        return self.retained_bytes(index), len(ensemble_to_bytes(index))


class TableSystem(_System):
    """Confirmation sampling over a lazily built table sequence."""

    fresh_per_pass = True  # each pass starts from a fresh, empty sequence

    def __init__(self, w: Workload, inst: Instance, seed: int):
        super().__init__(inst)
        self.seed = RngSeed(seed).child("bench-tables")

    def setup(self):
        default_k_cat(self.dataset, self.family, self.seed)
        return TableSequence(self.dataset, self.family, TABLE_K_CAT, TABLE_L_MAX, self.seed)

    def query(self, index, q):
        r = index.query_nn(q, TABLE_DELTA)
        report = {"point": r.point, "confirmed": r.confirmed,
                  **dataclasses.asdict(r.stats)}
        return r.point, report

    def footprint(self, index) -> tuple[int, int]:
        """(bytes retained, bytes of a file form) of a fresh sequence grown to
        FOOTPRINT_TABLES tables; `index` is not used. The library has no table
        serializer: the file form is the built HashTable objects (members,
        sorted values, point order, bucket dict) as pickled."""
        seq = self.setup()
        tables = [seq.table(i) for i in range(1, FOOTPRINT_TABLES + 1)]
        file_bytes = len(pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL))
        return self.retained_bytes(seq), file_bytes


def make_system(w: Workload, inst: Instance, seed: int):
    return (ForestSystem if w.kind == "forest" else TableSystem)(w, inst, seed)


def total_work(report: dict) -> int:
    """Hash evaluations plus candidate distance computations."""
    inspected = report.get("collisions_inspected", report.get("distance_computations"))
    return report["hash_evaluations"] + inspected
