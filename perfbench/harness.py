"""Measurement passes and metrics of the repository benchmark.

``--trace 0`` measures the end-to-end metrics with the library unpatched;
``--trace 1`` runs the same queries untraced and traced, checks that tracing
changed no returned id and no work counter, and reports per-layer metrics from
the recorded spans. Every returned id is checked against exact ground truth;
a query that raises or returns another id is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import cslsh
from cslsh import adaptive, oracle

import spans
from workloads import WORKLOADS, Size, Workload, make_instance, make_system, total_work

TAIL_PERCENTILE = 90
MIN_TIMED_QUERIES = 100  # so that p90 has at least 10 samples beyond it
STATIC_C = 8.0  # static level rule of the natural baseline: c * L collisions
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "qps": "1/s",
    "setup_s": "s",
    "index_bytes": "bytes",
    "index_file_bytes": "bytes",
    "work_over_n": "ratio",
    "recall": "ratio",
}

PER_LAYER_UNITS = {
    "adaptive.choose_level.ms_per_query": "ms",
    "adaptive.choose_level.calls_per_query": "count",
    "adaptive.run_level_pair.ms_per_query": "ms",
    "adaptive.bottom_up_phase.ms_per_query": "ms",
    "adaptive.bottom_up_share": "ratio",
    "adaptive.level_mean": "level",
    "families.evaluate.calls_per_query": "count",
    "families.evaluate.ms_per_query": "ms",
    "families.pack_strings.s": "s",
    "forest.build_forest.s": "s",
    "forest.nodes_visited_per_query": "count",
    "core.distances_to.ms_per_query": "ms",
    "core.distances_to.rows_per_query": "count",
    "core.distances_to.distinct_row_ratio": "ratio",
    "core.hash_evaluations_per_query": "count",
    "core.collisions_inspected_per_query": "count",
    "core.buckets_opened_per_query": "count",
    "confirmation.update.calls_per_query": "count",
    "confirmation.update.ms_per_query": "ms",
    "tables.table_builds": "count",
    "tables.table_build.ms_per_build": "ms",
    "tables.sample_once.ms_per_call": "ms",
    "tables.tables_queried_per_query": "count",
    "tables.empty_bucket_fallbacks_per_query": "count",
    "forest.bucket.ms_per_call": "ms",
    "forest.collision_count.ms_per_call": "ms",
    "oracle.natural.work_over_n": "ratio",
    "oracle.brute_force_nn.ms_p50": "ms",
    "adaptive.ensemble_to_bytes.s": "s",
    "adaptive.ensemble_from_bytes.s": "s",
    "trace.overhead_ratio": "ratio",
}


class CheckFailed(Exception):
    """A correctness check of the run failed."""


class Outcomes:
    """Attempted and failed query counts against the ground truth."""

    def __init__(self, truth: np.ndarray):
        self.truth = truth
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, system, index, k: int, q):
        """Run query k once; returns its report, or None when it raised."""
        self.attempted += 1
        try:
            point, report = system.query(index, q)
        except Exception as exc:  # a failed operation; the workload goes on
            self.failed += 1
            self.errors.append(f"query {k}: {type(exc).__name__}: {exc}")
            return None
        if point != self.truth[k]:
            self.failed += 1
            self.errors.append(f"query {k}: returned {point}, true NN {self.truth[k]}")
        return report


def _pass_index(system, index):
    """The index a pass runs on: a fresh one for a per-pass index."""
    return system.setup() if system.fresh_per_pass else index


def _read_git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_header(args, w: Workload, size: Size, root: Path) -> dict:
    return {
        "git_commit": _read_git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cslsh": cslsh.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "workload": w.name,
        "size": args.size,
        "seed": args.seed,
        "heldout_seed": args.heldout_seed,
        "n": size.n,
        "distinct_queries": size.queries,
        "trace": args.trace,
        "seconds": args.seconds,
        "tail_metric": f"query_ms_p{TAIL_PERCENTILE} = percentile {TAIL_PERCENTILE} "
                       "of per-query wall times (linear interpolation)",
        "load": "closed loop, one client, one process, one thread",
    }


def measure_end_to_end(w: Workload, size: Size, inst, system, seconds: float,
                       out: Outcomes) -> tuple[dict, dict]:
    # Closed loop over passes of the query set for `seconds`, with at least
    # one full pass and MIN_TIMED_QUERIES queries. Timed set-ups are spread over
    # the run, one before each of the first size.setup_reps passes (before
    # every pass for a per-pass index), so that set-up and query samples both
    # span the run rather than one stretch of it. The first pass gives the
    # work counters, which do not depend on timing. Each query's thread CPU
    # time is recorded beside its wall time, for the notes.
    Q = len(inst.queries)
    wall, cpu, first_pass, setup_times, pass_qps = [], [], [], [], []
    index = None
    t_start = time.perf_counter()
    done = False
    while not done:
        if system.fresh_per_pass or len(setup_times) < size.setup_reps:
            index = None  # release the previous index before building the next
            t0 = time.perf_counter()
            index = system.setup()
            setup_times.append(time.perf_counter() - t0)
        t_pass = time.perf_counter()
        for k, q in enumerate(inst.queries):
            t0, c0 = time.perf_counter(), time.thread_time()
            report = out.run(system, index, k, q)
            t1, c1 = time.perf_counter(), time.thread_time()
            wall.append(t1 - t0)
            cpu.append(c1 - c0)
            if len(first_pass) < Q:
                first_pass.append(report)
            done = (t1 - t_start >= seconds and len(wall) >= max(Q, MIN_TIMED_QUERIES)
                    and len(setup_times) >= size.setup_reps)
            if done:
                break
        if k == Q - 1:  # a complete pass
            pass_qps.append(Q / (time.perf_counter() - t_pass))
    loop_s = time.perf_counter() - t_start
    t0 = time.perf_counter()
    index_bytes, index_file_bytes = system.footprint(index)
    footprint_s = time.perf_counter() - t0
    works = [total_work(r) for r in first_pass if r is not None]

    wall_ms = np.array(wall) * 1e3
    cpu_ms = np.array(cpu) * 1e3
    return {
        "query_ms_p50": float(np.percentile(wall_ms, 50)),
        "query_ms_p90": float(np.percentile(wall_ms, TAIL_PERCENTILE)),
        "qps": float(statistics.median(pass_qps)),
        "setup_s": float(statistics.median(setup_times)),
        "index_bytes": index_bytes,
        "index_file_bytes": index_file_bytes,
        "work_over_n": float(np.mean(works)) / inst.dataset.n if works else 0.0,
        "recall": (out.attempted - out.failed) / out.attempted,
    }, {"timed_queries": len(wall), "setups": len(setup_times),
        "pass_p50_ms": [float(np.median(wall_ms[i:i + Q])) for i in range(0, len(wall_ms), Q)],
        "cpu_ms_p50": float(np.percentile(cpu_ms, 50)),
        "cpu_ms_p90": float(np.percentile(cpu_ms, TAIL_PERCENTILE)),
        "cpu_over_wall": float(cpu_ms.sum() / wall_ms.sum()),
        "setup_s_each": setup_times, "footprint_s": footprint_s,
        "loop_s": loop_s}


def _paired_passes(system, index, inst, n_queries: int, out: Outcomes, tracer):
    """Run each of the first n_queries queries untraced and traced, on
    separate pass indexes, alternating which goes first so that neither side
    always meets warm caches. Returns (untraced reports, traced reports,
    untraced seconds, traced seconds)."""
    plain_index = _pass_index(system, index)
    traced_index = _pass_index(system, index)
    reports = {False: [], True: []}
    seconds = {False: 0.0, True: 0.0}
    for k in range(n_queries):
        q = inst.queries[k]
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span("query"):
                        report = out.run(system, traced_index, k, q)
                    seconds[True] += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                report = out.run(system, plain_index, k, q)
                seconds[False] += time.perf_counter() - t0
            reports[traced].append(report)
    return reports[False], reports[True], seconds[False], seconds[True]


def _mean(reports, field: str) -> float:
    return float(np.mean([r.get(field, 0) for r in reports]))


def measure_per_layer(w: Workload, size: Size, inst, system, out: Outcomes) -> tuple:
    """Untraced and traced passes over the same queries, the natural and
    brute-force baselines, and the serialization round trip."""
    ds = inst.dataset
    n = ds.n
    Q = size.trace_queries
    tracer = spans.Tracer()

    with tracer.installed(), tracer.span("setup"):
        index = system.setup()
    plain, traced, plain_s, traced_s = _paired_passes(system, index, inst, Q, out, tracer)
    if plain != traced:
        raise CheckFailed("tracing changed a returned id or a work counter")
    if any(r is None for r in plain):
        raise CheckFailed("a query raised; per-layer figures would be partial")

    natural_work = []
    natural_hits = 0
    brute_hits = 0
    with tracer.installed():
        if w.kind == "forest":
            forest0 = index.forests[0]
            for k in range(Q):
                q = inst.queries[k]
                with tracer.span("natural"):
                    level = oracle.static_level_choice(forest0, q, STATIC_C)
                    point, work = oracle.natural_algorithm(forest0, q, level, forest0.L)
                natural_work.append(work)
                natural_hits += point == inst.truth[k]
        for k in range(Q):
            with tracer.span("brute"):
                point = oracle.brute_force_nn(ds, inst.queries[k])
            brute_hits += point == inst.truth[k]
    if brute_hits != Q:
        raise CheckFailed("brute_force_nn disagrees with the exact ground truth")

    if w.kind == "forest":
        with tracer.span("to_bytes"):
            blob = adaptive.ensemble_to_bytes(index)
        check_q = inst.queries[0]
        expected = system.query(index, check_q)
        index = None
        with tracer.span("from_bytes"):
            loaded = adaptive.ensemble_from_bytes(blob, ds)
        del blob
        if system.query(loaded, check_q) != expected:
            raise CheckFailed("reloaded ensemble answers differently")

    table = tracer.analyse()
    if table.nesting_violations() or (table.self_time < -1e-9).any():
        raise CheckFailed("recorded spans do not nest")

    def per_query(name):
        return (table.count(name, "query") / Q,
                table.self_seconds(name, "query") * 1e3 / Q)

    def per_call_ms(name, root=None):
        calls = table.count(name, root)
        return table.self_seconds(name, root) * 1e3 / calls if calls else 0.0

    rows, distinct = table.kernel_rows("query", n)
    forest_reports = [r for r in traced if "phase" in r]
    evaluate_calls, evaluate_ms = per_query("families.evaluate")
    update_calls, update_ms = per_query("confirmation.update")
    choose_calls, choose_ms = per_query("adaptive.choose_level")
    metrics = {
        "adaptive.choose_level.ms_per_query": choose_ms,
        "adaptive.choose_level.calls_per_query": choose_calls,
        "adaptive.run_level_pair.ms_per_query": per_query("adaptive.run_level_pair")[1],
        "adaptive.bottom_up_phase.ms_per_query": per_query("adaptive.bottom_up_phase")[1],
        "adaptive.bottom_up_share": (
            sum(r["phase"] == "bottom-up" for r in forest_reports) / Q),
        "adaptive.level_mean": _mean(traced, "level"),
        "families.evaluate.calls_per_query": evaluate_calls,
        "families.evaluate.ms_per_query": evaluate_ms,
        "families.pack_strings.s": table.self_seconds("families.pack_strings"),
        "forest.build_forest.s": table.self_seconds("forest.build_forest"),
        "forest.nodes_visited_per_query": _mean(traced, "nodes_visited"),
        "core.distances_to.ms_per_query": per_query(spans.DISTANCES_SPAN)[1],
        "core.distances_to.rows_per_query": rows / Q,
        "core.distances_to.distinct_row_ratio": distinct / rows if rows else 0.0,
        "core.hash_evaluations_per_query": _mean(traced, "hash_evaluations"),
        "core.collisions_inspected_per_query": (
            _mean(traced, "collisions_inspected") + _mean(traced, "distance_computations")),
        "core.buckets_opened_per_query": (
            _mean(traced, "buckets_opened") + _mean(traced, "tables_queried")),
        "confirmation.update.calls_per_query": update_calls,
        "confirmation.update.ms_per_query": update_ms,
        "tables.table_builds": table.count("tables.table_build"),
        "tables.table_build.ms_per_build": per_call_ms("tables.table_build"),
        "tables.sample_once.ms_per_call": per_call_ms("tables.sample_once"),
        "tables.tables_queried_per_query": _mean(traced, "tables_queried"),
        "tables.empty_bucket_fallbacks_per_query": _mean(traced, "empty_bucket_fallbacks"),
        "forest.bucket.ms_per_call": per_call_ms("forest.bucket", "natural"),
        "forest.collision_count.ms_per_call": per_call_ms("forest.collision_count", "natural"),
        "oracle.natural.work_over_n": (
            float(np.mean(natural_work)) / n if natural_work else 0.0),
        "oracle.brute_force_nn.ms_p50": float(np.median(table.durations("brute"))) * 1e3,
        "adaptive.ensemble_to_bytes.s": float(table.durations("to_bytes").sum()),
        "adaptive.ensemble_from_bytes.s": float(table.durations("from_bytes").sum()),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    notes = {"traced_queries": Q, "spans": len(table.start),
             "natural_recall": natural_hits / Q if natural_work else None}
    return metrics, notes, table


def heldout_check(w: Workload, size: Size, seed: int) -> dict:
    """Recall and work_over_n on a second workload seed (one untimed pass)."""
    inst = make_instance(w, size, seed)
    system = make_system(w, inst, seed)
    out = Outcomes(inst.truth)
    index = system.setup()
    works = []
    for k, q in enumerate(inst.queries):
        report = out.run(system, index, k, q)
        if report is not None:
            works.append(total_work(report))
    return {"seed": seed, "recall": (out.attempted - out.failed) / out.attempted,
            "work_over_n": float(np.mean(works)) / inst.dataset.n if works else 0.0,
            "attempted": out.attempted, "failed": out.failed, "errors": out.errors[:5]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="cslsh repository benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--heldout-seed", type=int, default=None,
                   help="also check recall and work_over_n on this second seed")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small instances for the smoke tests")
    return p.parse_args(argv)


def run(args, root: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, header and notes)."""
    w = WORKLOADS[args.workload]
    size = w.sizes[args.size]
    header = run_header(args, w, size, root)
    inst = make_instance(w, size, args.seed)
    system = make_system(w, inst, args.seed)
    out = Outcomes(inst.truth)
    correct = True
    notes = {}
    try:
        if args.trace:
            values, notes, _ = measure_per_layer(w, size, inst, system, out)
            units = PER_LAYER_UNITS
        else:
            values, notes = measure_end_to_end(w, size, inst, system, args.seconds, out)
            units = END_TO_END_UNITS
    except CheckFailed as exc:
        correct = False
        notes["check_failed"] = str(exc)
        values, units = {}, {}
    if args.heldout_seed is not None:
        notes["heldout"] = heldout_check(w, size, args.heldout_seed)
        correct &= notes["heldout"]["failed"] == 0
    correct &= out.failed == 0
    notes["errors"] = out.errors[:10]
    result = {
        "correct": bool(correct),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, {"header": header, "notes": notes}


def main(argv=None, root: Path = Path(".")) -> int:
    args = parse_args(argv)
    result, info = run(args, root)
    print(json.dumps({"header": info["header"]}))
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"notes": info["notes"]}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1
