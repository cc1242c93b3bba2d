"""Command-line surface: generate instances, build/serialize structures, run
query experiments, sweep benchmarks, and run the verification suites.

Reports are line-delimited JSON with a leading config record, so a report is
reproducible byte-for-byte from its own header; wall-clock timings are kept
out of the rows unless explicitly requested. Exit codes: 0 success, 1
operational error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .adaptive import (
    AdaptiveConfig,
    adaptive_nearest_neighbor,
    build_ensemble,
    load_ensemble,
    save_ensemble,
)
from .core import Metric, RngSeed
from .data import (
    FormatError,
    InstanceSpec,
    generate,
    load_instance,
    save_instance,
)
from .families import family_for_metric
from .forest import build_forest, load_forest, save_forest
from .oracle import static_level_choice, brute_force_nn, natural_algorithm, opt_report, profile
from .tables import TableSequence

DEFAULTS = {
    "instance": "uniform-hamming",
    "metric": None,
    "n": 1024,
    "dim": 32,
    "queries": 100,
    "instance_seed": 1,
    "planted_distance": 1,
    "shell_min_distance": 8,
    "cluster_size": 128,
    "cluster_distance": 8,
    "cluster_radius": 0,
    "shell_flips": 32,
    "queries_from_data": False,
    "algorithm": "forest-adaptive",
    "delta": 0.125,
    "t": 3,
    "k": 16,
    "l": 512,
    "k_cat": None,
    "l_prime": None,
    "l_max": 4096,
    "c_forests": 8.0,
    "collision_cap": 10,
    "quorum_terminate": 0.25,
    "natural_level": None,
    "natural_trees": None,
    "static_c": 8.0,
    "seed": 1,
    "repetitions": 1,
    "timings": False,
}

_BOOL_KEYS = {"queries_from_data", "timings"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = {
    "n", "dim", "queries", "instance_seed", "planted_distance", "shell_min_distance",
    "cluster_size", "cluster_distance", "cluster_radius", "shell_flips", "t", "k",
    "l", "k_cat", "l_prime", "l_max", "collision_cap", "natural_level",
    "natural_trees", "seed", "repetitions",
}
_FLOAT_KEYS = {"delta", "c_forests", "quorum_terminate", "static_c"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"malformed config line {lineno}: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if value.lower() in ("none", ""):
        return None
    if key in _BOOL_KEYS:
        if value.lower() not in _BOOL_WORDS:
            raise ValueError(f"{key} must be one of {'/'.join(_BOOL_WORDS)}, not {value!r}")
        return _BOOL_WORDS[value.lower()]
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


def resolve_config(file_path: str | None, overrides: dict) -> dict:
    config = dict(DEFAULTS)
    if file_path:
        for key, value in parse_config_file(file_path).items():
            if key not in DEFAULTS:
                raise FormatError(f"unknown config key: {key}")
            config[key] = _coerce(key, value)
    for key, value in overrides.items():
        if value is not None:
            config[key] = _coerce(key, value) if isinstance(value, str) else value
    return config


def instance_from_config(config: dict):
    """The configured instance. A file instance is read under the configured
    metric (Hamming when none is given); a generated kind fixes its own, and
    a configured metric that contradicts it is a ValueError."""
    name = config["instance"]
    if name.startswith("file:"):
        return load_instance(name[5:], Metric(config["metric"] or "hamming"))
    kind = "uniform-hamming" if name == "distance-zero" else name
    spec = InstanceSpec(
        kind,
        n=config["n"],
        dim=config["dim"],
        n_queries=config["queries"],
        seed=config["instance_seed"],
        planted_distance=config["planted_distance"],
        shell_min_distance=config["shell_min_distance"],
        cluster_size=config["cluster_size"],
        cluster_distance=config["cluster_distance"],
        cluster_radius=config["cluster_radius"],
        shell_flips=config["shell_flips"],
        queries_from_data=config["queries_from_data"] or name == "distance-zero",
    )
    instance = generate(spec)
    metric = instance.dataset.metric.value
    if config["metric"] not in (None, metric):
        raise ValueError(f"metric {config['metric']} contradicts the {name} instance, "
                         f"whose metric is {metric}")
    return instance


def _adaptive_config(config: dict) -> AdaptiveConfig:
    return AdaptiveConfig(
        c_forests=config["c_forests"],
        t=config["t"],
        collision_cap=config["collision_cap"],
        terminate_quorum=config["quorum_terminate"],
    )


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_query_experiment(overrides: dict, config_file: str | None = None,
                         structure_path: str | None = None):
    """Run one (instance, algorithm) experiment; returns (rows, summary).

    Rows are canonical JSON strings: a config record followed by one record
    per query. Identical configs and seeds reproduce identical rows. With
    ``structure_path``, forest-adaptive and natural load the serialized
    structure instead of rebuilding it.
    """
    config = resolve_config(config_file, overrides)
    reps = config["repetitions"]
    if reps is None or reps < 1:
        raise ValueError(f"repetitions must be >= 1, not {reps}")
    instance = instance_from_config(config)
    dataset = instance.dataset
    config["metric"] = dataset.metric.value
    if config["instance"].startswith("file:"):
        # The header describes the instance that was loaded, not the
        # generator settings, which a file instance does not use.
        config.update(n=dataset.n, dim=dataset.dim, queries=instance.queries.n,
                      instance_seed=None)
    algorithm = config["algorithm"]
    seed = RngSeed(config["seed"])
    family = None if algorithm == "brute" else family_for_metric(dataset.metric, dataset.dim)

    rows = [_canonical({"config": {k: config[k] for k in sorted(config)}})]
    hits = 0
    works = []
    t_wall0 = time.perf_counter()

    if algorithm == "forest-adaptive":
        if structure_path:
            ens = load_ensemble(structure_path, dataset)
        else:
            ens = build_ensemble(
                dataset, family, config["k"], config["l"], seed.child("ensemble"),
                _adaptive_config(config), l_prime=config["l_prime"],
            )
        runner = lambda k, q: _run_adaptive(ens, q, seed.child("query", k))
    elif algorithm == "table-cs":
        ts = TableSequence(dataset, family, config["k_cat"], config["l_max"], seed.child("tables"))
        runner = lambda k, q: _table_row(ts.query_nn(q, config["delta"], seed.child("query", k)))
    elif algorithm == "budgeted-cs":
        ts = TableSequence(dataset, family, config["k_cat"], config["l_max"], seed.child("tables"))
        runner = lambda k, q: _table_row(
            ts.query_nn_budgeted(q, config["delta"], config["l"], seed.child("query", k)))
    elif algorithm == "natural":
        if structure_path:
            forest = load_forest(structure_path, dataset)
        else:
            forest = build_forest(dataset, family, config["k"], config["l"], seed.child("forest"))
        runner = lambda k, q: _run_natural(forest, q, config)
    elif algorithm == "brute":
        runner = lambda k, q: _run_brute(dataset, q)
    else:
        raise FormatError(f"unknown algorithm: {algorithm}")

    for rep in range(reps):
        for k in range(instance.queries.n):
            q = instance.query(k)
            t0 = time.perf_counter()
            record = runner(rep * instance.queries.n + k, q)
            wall_ms = (time.perf_counter() - t0) * 1e3
            record["rep"] = rep
            record["query"] = k
            record["true"] = int(instance.ground_truth[k])
            hits += int(record["returned"] == record["true"])
            works.append(record["work"])
            if config["timings"]:
                record["wall_ms"] = round(wall_ms, 3)
            rows.append(_canonical(record))

    works_arr = np.array(works, dtype=float)
    summary = {
        "algorithm": algorithm,
        "instance": config["instance"],
        "n": dataset.n,
        "queries": instance.queries.n,
        "repetitions": reps,
        "recall": hits / (instance.queries.n * reps),
        "mean_work": float(works_arr.mean()),
        "p50_work": float(np.percentile(works_arr, 50)),
        "p90_work": float(np.percentile(works_arr, 90)),
        "wall_s": round(time.perf_counter() - t_wall0, 3),
        "seed": config["seed"],
    }
    if family is not None:
        opts = []
        L_for_opt = config["l"]
        for k in range(min(100, instance.queries.n)):
            prof = profile(dataset, family, instance.query(k), config["k"])
            opts.append(opt_report(prof, L_for_opt, config["k"], dataset.n).opt)
        mean_opt = float(np.mean(opts))
        summary["mean_opt"] = mean_opt
        if math.isfinite(mean_opt) and mean_opt > 0:
            summary["work_over_opt"] = summary["mean_work"] / mean_opt
    return rows, summary


def _run_adaptive(ens, q, qseed):
    r = adaptive_nearest_neighbor(ens, q, qseed)
    out = {"returned": int(r.point), "level": r.level, "phase": r.phase}
    out.update(r.counters.as_dict())
    out["work"] = r.counters.total_work
    return out


def _table_row(r):
    out = {"returned": int(r.point), "confirmed": r.confirmed, "t": r.t}
    out.update(r.stats.as_dict())
    out["work"] = r.stats.total_work
    return out


def _run_natural(forest, q, config):
    level = config["natural_level"]
    if level is None:
        level = static_level_choice(forest, q, config["static_c"])
    trees = forest.L if config["natural_trees"] is None else config["natural_trees"]
    pid, work = natural_algorithm(forest, q, level, trees)
    return {"returned": int(pid), "level": level, "trees": trees, "work": work}


def _run_brute(dataset, q):
    return {"returned": brute_force_nn(dataset, q), "work": dataset.n}


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_generate(args) -> int:
    config = resolve_config(args.config, _overrides(args))
    instance = instance_from_config(config)
    paths = save_instance(instance, args.out)
    print(f"wrote {paths['data']}, {paths['queries']}, {paths['truth']}")
    print(
        f"kind={instance.spec.kind} n={instance.dataset.n} dim={instance.dataset.dim} "
        f"queries={instance.queries.n} seed={instance.spec.seed}"
    )
    return 0


def cmd_build(args) -> int:
    config = resolve_config(args.config, _overrides(args))
    instance = instance_from_config(config)
    dataset = instance.dataset
    family = family_for_metric(dataset.metric, dataset.dim)
    seed = RngSeed(config["seed"])
    if args.structure == "forest":
        forest = build_forest(dataset, family, config["k"], config["l"], seed.child("forest"))
        save_forest(forest, args.out)
        depth = max(forest.stored_depth(j, i)
                    for j in range(forest.L) for i in range(min(dataset.n, 8)))
        print(f"forest: L={forest.L} K={forest.K} sample_max_depth={depth}")
    else:
        ens = build_ensemble(
            dataset, family, config["k"], config["l"], seed.child("ensemble"),
            _adaptive_config(config), l_prime=config["l_prime"],
        )
        save_ensemble(ens, args.out)
        print(f"ensemble: R={ens.R} L'={ens.l_prime} K={ens.K}")
    import os

    print(f"bytes={os.path.getsize(args.out)}")
    return 0


def cmd_query(args) -> int:
    rows, summary = run_query_experiment(
        _overrides(args), args.config, structure_path=args.structure_file
    )
    payload = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(
        "recall={recall:.4f} mean_work={mean_work:.1f} p50={p50_work:.0f} "
        "p90={p90_work:.0f} wall_s={wall_s}".format(**summary)
        + (f" work/OPT={summary['work_over_opt']:.1f}" if "work_over_opt" in summary else ""),
        file=sys.stderr,
    )
    return 0


def cmd_bench(args) -> int:
    algorithms = args.algorithms.split(",")
    kinds = args.instances.split(",")
    sizes = [int(x) for x in args.sizes.split(",")]
    cells = [
        dict(_overrides(args), algorithm=a.strip(), instance=kind.strip(), n=n)
        for a in algorithms
        for kind in kinds
        for n in sizes
    ]
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, not {args.threads}")
    workers = min(args.threads, len(cells))  # the pool forks all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_bench_cell, cell, args.config) for cell in cells]
            results = [f.result() for f in futures]
    else:
        results = [_bench_cell(cell, args.config) for cell in cells]
    import os

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    header = f"{'algorithm':<16} {'instance':<16} {'n':>6} {'recall':>8} {'mean_work':>12} {'work/OPT':>9}"
    print(header)
    print("-" * len(header))
    failures = 0
    for cell, outcome in zip(cells, results):
        rows, summary, error = outcome
        tag = f"{cell['algorithm']}_{cell['instance']}_{cell['n']}"
        if error is not None:
            failures += 1
            print(f"{cell['algorithm']:<16} {cell['instance']:<16} {cell['n']:>6} ERROR: {error}")
            continue
        if args.out:
            with open(os.path.join(args.out, tag + ".jsonl"), "w") as fh:
                fh.write("\n".join(rows) + "\n")
        ratio = summary.get("work_over_opt")
        ratio_text = f"{ratio:>9.1f}" if ratio is not None else f"{'-':>9}"
        print(
            f"{summary['algorithm']:<16} {summary['instance']:<16} {summary['n']:>6} "
            f"{summary['recall']:>8.4f} {summary['mean_work']:>12.1f} {ratio_text}"
        )
    return 1 if failures == len(cells) and cells else 0


def _bench_cell(cell: dict, config_file: str | None):
    try:
        rows, summary = run_query_experiment(cell, config_file)
        return rows, summary, None
    except Exception as exc:  # recorded per cell; the sweep continues
        return None, None, f"{type(exc).__name__}: {exc}"


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    if args.suite not in SUITES:
        print(f"unknown suite '{args.suite}'; choose from: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return 1
    _, passed = run_suite(args.suite)
    print("suite", args.suite, "PASSED" if passed else "FAILED")
    return 0 if passed else 2


def _overrides(args) -> dict:
    keys = set(DEFAULTS)
    return {k: v for k, v in vars(args).items() if k in keys and v is not None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cslsh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output path")
        p.add_argument("--instance", help="generator kind or file:PREFIX")
        p.add_argument("--metric", choices=[m.value for m in Metric])
        p.add_argument("-n", type=int, dest="n")
        p.add_argument("--dim", type=int)
        p.add_argument("--queries", type=int)
        p.add_argument("--instance-seed", type=int, dest="instance_seed")
        p.add_argument("--algorithm")
        p.add_argument("--delta", type=float)
        p.add_argument("-k", type=int, dest="k", help="levels per tree")
        p.add_argument("-l", type=int, dest="l", help="total trees")
        p.add_argument("--k-cat", type=int, dest="k_cat")
        p.add_argument("--l-prime", type=int, dest="l_prime")
        p.add_argument("--l-max", type=int, dest="l_max")
        p.add_argument("--c-forests", type=float, dest="c_forests")
        p.add_argument("--collision-cap", type=int, dest="collision_cap")
        p.add_argument("--quorum-terminate", type=float, dest="quorum_terminate")
        p.add_argument("--natural-level", type=int, dest="natural_level")
        p.add_argument("--natural-trees", type=int, dest="natural_trees")
        p.add_argument("--timings", action="store_const", const=True, default=None)
        p.add_argument("--planted-distance", type=int, dest="planted_distance")
        p.add_argument("--shell-min-distance", type=int, dest="shell_min_distance")
        p.add_argument("--cluster-size", type=int, dest="cluster_size")
        p.add_argument("--cluster-distance", type=int, dest="cluster_distance")
        p.add_argument("--shell-flips", type=int, dest="shell_flips")

    p_gen = sub.add_parser("generate", help="generate a synthetic instance")
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_build = sub.add_parser("build", help="build and serialize a structure")
    common(p_build)
    p_build.add_argument("--structure", choices=("forest", "ensemble"), default="forest")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="run a query experiment")
    common(p_query)
    p_query.add_argument("--structure-file", dest="structure_file",
                         help="serialized forest/ensemble to query instead of rebuilding")
    p_query.set_defaults(func=cmd_query)

    p_bench = sub.add_parser("bench", help="sweep algorithm x instance x n")
    common(p_bench)
    p_bench.add_argument("--algorithms", default="forest-adaptive,brute")
    p_bench.add_argument("--instances", default="planted-nn,uniform-hamming")
    p_bench.add_argument("--sizes", default="256,1024")
    p_bench.add_argument("--threads", type=int, default=1, help="worker processes")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) in ("", None) and args.command in ("generate", "build"):
            raise FormatError(f"{args.command} requires --out")
        return args.func(args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
