"""Golden query reports: returned ids and every work counter, pinned for
small fixed-seed instances of the three query paths (adaptive forest query on
planted Hamming and on angular data, table-sequence confirmation sampling,
and the static natural scan over one forest).

A change to the index layout or to a query's inner loops must leave these
reports byte-identical; a change that is meant to alter them has to update
``golden_reports.json`` and say why.
"""

import dataclasses
import json
from pathlib import Path

from cslsh import RngSeed, TableSequence, adaptive_nearest_neighbor, build_ensemble
from cslsh.core import CostCounters
from cslsh.data import InstanceSpec, generate
from cslsh.families import family_for_metric
from cslsh.forest import build_forest
from cslsh.oracle import natural_algorithm

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _adaptive_reports(kind: str, n: int, dim: int, K: int, seed: int,
                      l_prime: int = 8) -> list:
    inst = generate(InstanceSpec(kind, n, dim, 6, seed))
    ds = inst.dataset
    family = family_for_metric(ds.metric, dim)
    ens = build_ensemble(ds, family, K, 1, RngSeed(seed).child("golden"), l_prime=l_prime)
    out = []
    for k in range(inst.queries.n):
        r = adaptive_nearest_neighbor(ens, inst.query(k))
        out.append({"point": r.point, "level": r.level, "phase": r.phase,
                    "rounds_spread": r.rounds_spread, **dataclasses.asdict(r.counters)})
    return out


def _table_reports(kind: str, n: int, dim: int, seed: int) -> list:
    inst = generate(InstanceSpec(kind, n, dim, 6, seed))
    ds = inst.dataset
    family = family_for_metric(ds.metric, ds.dim)
    out = []
    for k in range(inst.queries.n):
        q = inst.query(k)
        seq = TableSequence(ds, family, None, 4096, RngSeed(seed).child("golden"))
        r = seq.query_nn(q, 1 / 8)
        b = seq.query_nn_budgeted(q, 1 / 8, 32)
        out.append({"k_cat": seq.k_cat,
                    "point": r.point, "confirmed": r.confirmed, **dataclasses.asdict(r.stats),
                    "budgeted": {"point": b.point, "confirmed": b.confirmed,
                                 **dataclasses.asdict(b.stats)}})
    return out


def _forest_reports(seed: int) -> list:
    inst = generate(InstanceSpec("planted-nn", 256, 32, 4, seed))
    ds = inst.dataset
    forest = build_forest(ds, family_for_metric(ds.metric, ds.dim), 16, 4,
                          RngSeed(seed).child("golden-forest"))
    out = []
    for k in range(inst.queries.n):
        q = inst.query(k)
        per_level = []
        for i in range(forest.K + 1):
            bucket_counters, count_counters = CostCounters(), CostCounters()
            sizes = [len(forest.bucket(j, i, q, bucket_counters))
                     for j in range(1, forest.L + 1)]
            counts = [forest.collision_count(j, i, q, count_counters)
                      for j in range(1, forest.L + 1)]
            per_level.append({"sizes": sizes, "counts": counts,
                              "bucket": dataclasses.asdict(bucket_counters),
                              "count": dataclasses.asdict(count_counters)})
        point, work = natural_algorithm(forest, q, 6, forest.L)
        out.append({"natural": [point, work], "levels": per_level})
    return out


def collect_reports() -> dict:
    return {
        "planted-adaptive": _adaptive_reports("planted-nn", 256, 32, 16, 11),
        "planted-wide-adaptive": _adaptive_reports("planted-nn", 128, 96, 16, 15),
        "angular-adaptive": _adaptive_reports("gaussian-angular", 128, 64, 32, 12),
        # bottom-up sweeps that drop levels: 3 -> 2, and 2 -> 0 on both metrics
        "uniform-drop-adaptive": _adaptive_reports("uniform-hamming", 256, 32, 16, 21, 8),
        "uniform-level0-adaptive": _adaptive_reports("uniform-hamming", 128, 16, 12, 22, 2),
        "angular-level0-adaptive": _adaptive_reports("gaussian-angular", 96, 8, 16, 23, 2),
        "uniform-tables": _table_reports("uniform-hamming", 512, 64, 13),
        "angular-tables": _table_reports("gaussian-angular", 256, 16, 16),
        "planted-forest": _forest_reports(14),
    }


def test_reports_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(collect_reports()))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
