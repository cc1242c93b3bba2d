import json

import pytest

from cslsh.cli import main, parse_config_file, resolve_config, run_query_experiment
from cslsh.core import Metric
from cslsh.data import FormatError, load_instance


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
# experiment settings
algorithm = table-cs
n = 64            # small
delta = 0.25
queries_from_data = true
"""
    )
    parsed = parse_config_file(str(cfg))
    assert parsed["algorithm"] == "table-cs"
    resolved = resolve_config(str(cfg), {})
    assert resolved["n"] == 64
    assert resolved["delta"] == 0.25
    assert resolved["queries_from_data"] is True
    # command-line overrides win over file values
    resolved2 = resolve_config(str(cfg), {"n": 128})
    assert resolved2["n"] == 128


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 1\n")
    with pytest.raises(FormatError):
        resolve_config(str(cfg), {})


def test_the_advance_quorum_is_not_an_option(tmp_path, capsys):
    # a bottom-up level lasts L' lock-step rounds; no quorum decides its end
    args = ["query", "--instance", "uniform-hamming", "-n", "16", "--dim", "8",
            "--queries", "1", "--algorithm", "brute"]
    assert main(args + ["--quorum-advance", "0.5"]) == 1
    cfg = tmp_path / "old.cfg"
    cfg.write_text("quorum_advance = 0.5\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert "unknown config key: quorum_advance" in capsys.readouterr().err


def test_generate_build_query_round_trip(tmp_path):
    prefix = str(tmp_path / "inst")
    assert main([
        "generate", "--instance", "planted-nn", "-n", "80", "--dim", "32",
        "--queries", "10", "--instance-seed", "4", "--out", prefix,
    ]) == 0
    forest_path = str(tmp_path / "f.bin")
    assert main([
        "build", "--instance", f"file:{prefix}", "--metric", "hamming",
        "-k", "8", "-l", "4", "--seed", "2", "--out", forest_path,
        "--structure", "forest",
    ]) == 0
    report = str(tmp_path / "rep.jsonl")
    assert main([
        "query", "--instance", f"file:{prefix}", "--metric", "hamming",
        "--algorithm", "brute", "--seed", "2", "--out", report,
    ]) == 0
    lines = open(report).read().strip().split("\n")
    header = json.loads(lines[0])
    assert "config" in header
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == 10
    assert all(r["returned"] == r["true"] for r in rows)  # brute recall 1.0


def test_file_instance_header_describes_loaded_instance(tmp_path):
    prefix = str(tmp_path / "inst")
    assert main([
        "generate", "--instance", "uniform-hamming", "-n", "60", "--dim", "40",
        "--queries", "7", "--instance-seed", "3", "--out", prefix,
    ]) == 0
    rows, summary = run_query_experiment(
        {"instance": f"file:{prefix}", "metric": "hamming", "algorithm": "brute"})
    config = json.loads(rows[0])["config"]
    assert (config["n"], config["dim"], config["queries"]) == (60, 40, 7)
    assert config["instance_seed"] is None
    assert len(rows) == 1 + 7 and summary["n"] == 60


def test_generated_instance_header_names_its_metric(tmp_path, capsys):
    args = {"instance": "gaussian-angular", "n": 32, "dim": 8, "queries": 2,
            "algorithm": "brute"}
    rows, _ = run_query_experiment(dict(args))
    assert json.loads(rows[0])["config"]["metric"] == "angular"
    # a configured metric that contradicts the generated kind is refused
    with pytest.raises(ValueError):
        run_query_experiment(dict(args, metric="euclidean"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("metric = hamming\n")
    with pytest.raises(ValueError):
        run_query_experiment(dict(args), str(cfg))
    assert main(["query", "--instance", "gaussian-angular", "--metric", "hamming",
                 "-n", "32", "--dim", "8", "--queries", "2", "--algorithm", "brute"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_build_rejects_zero_levels(tmp_path):
    rc = main([
        "build", "--instance", "uniform-hamming", "-n", "16", "--dim", "8",
        "--queries", "2", "-k", "0", "-l", "2", "--out", str(tmp_path / "x.bin"),
    ])
    assert rc == 1


@pytest.mark.parametrize("structure", ["forest", "ensemble"])
def test_build_rejects_more_than_64_levels(tmp_path, structure):
    # a K-bit string is one unsigned word
    out = tmp_path / "x.bin"
    rc = main([
        "build", "--instance", "uniform-hamming", "-n", "16", "--dim", "8",
        "--queries", "2", "-k", "65", "-l", "2", "--structure", structure, "--out", str(out),
    ])
    assert rc == 1 and not out.exists()


def test_build_deterministic_bytes(tmp_path):
    args = [
        "build", "--instance", "uniform-hamming", "-n", "32", "--dim", "16",
        "--queries", "2", "--instance-seed", "9", "-k", "6", "-l", "3",
        "--seed", "7", "--structure", "forest",
    ]
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_reports_are_deterministic():
    overrides = {
        "instance": "planted-nn", "n": 100, "dim": 32, "queries": 20,
        "instance_seed": 3, "algorithm": "table-cs", "delta": 0.25,
        "k_cat": 8, "seed": 11,
    }
    rows1, summary1 = run_query_experiment(dict(overrides))
    rows2, summary2 = run_query_experiment(dict(overrides))
    assert rows1 == rows2
    assert summary1["recall"] == summary2["recall"]
    # wall time stays out of the rows unless explicitly requested
    assert "wall_ms" not in rows1[1]
    rows3, _ = run_query_experiment(dict(overrides, timings=True))
    assert "wall_ms" in json.loads(rows3[1])


@pytest.mark.parametrize("algorithm", ["forest-adaptive", "table-cs", "budgeted-cs"])
def test_report_work_equals_module_counters(algorithm):
    rows, _ = run_query_experiment({
        "instance": "uniform-hamming", "n": 64, "dim": 16, "queries": 6,
        "instance_seed": 2, "algorithm": algorithm, "k": 8, "l": 64,
        "seed": 4,
    })
    for line in rows[1:]:
        row = json.loads(line)
        assert row["work"] == row["hash_evaluations"] + row["collisions_inspected"]
        assert row["work"] == row["total_work"]


def test_budgeted_algorithm_runs():
    rows, summary = run_query_experiment({
        "instance": "planted-nn", "n": 100, "dim": 32, "queries": 15,
        "instance_seed": 3, "algorithm": "budgeted-cs", "delta": 0.125,
        "k_cat": 8, "l": 32, "l_max": 32, "seed": 11,
    })
    assert summary["recall"] >= 0.8


def test_natural_algorithm_config():
    rows, summary = run_query_experiment({
        "instance": "uniform-hamming", "n": 64, "dim": 16, "queries": 10,
        "instance_seed": 5, "algorithm": "natural", "k": 6, "l": 4,
        "natural_level": 0, "natural_trees": 1, "seed": 1,
    })
    assert summary["recall"] == 1.0  # level 0 is a full scan
    row = json.loads(rows[1])
    assert row["work"] == 64


@pytest.mark.parametrize("args", [
    ["--algorithm", "budgeted-cs", "--k-cat", "8", "-l", "0", "--l-max", "32"],
    ["--algorithm", "forest-adaptive", "-k", "8", "-l", "0"],
    ["--algorithm", "forest-adaptive", "-k", "8", "-l", "-4"],
    ["--algorithm", "natural", "-k", "8", "-l", "4", "--natural-trees", "0"],
], ids=["budgeted-no-tables", "adaptive-no-trees", "adaptive-negative-trees",
        "natural-no-trees"])
def test_a_query_over_no_tables_or_trees_is_refused(tmp_path, capsys, args):
    rc = main([
        "query", "--instance", "planted-nn", "-n", "64", "--dim", "32", "--queries", "3",
        *args, "--out", str(tmp_path / "r.jsonl"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_negative_depth_is_refused(tmp_path, capsys):
    # table-cs never builds a tree, but its summary's OPT profile reads -k
    rc = main([
        "query", "--instance", "uniform-hamming", "-n", "64", "--dim", "16", "--queries", "2",
        "--algorithm", "table-cs", "-k", "-1", "--out", str(tmp_path / "r.jsonl"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: K must be nonnegative")


def test_unknown_algorithm_exits_nonzero(tmp_path, capsys):
    rc = main([
        "query", "--instance", "uniform-hamming", "-n", "16", "--dim", "8",
        "--queries", "2", "--algorithm", "nope", "--seed", "1",
        "--out", str(tmp_path / "r.jsonl"),
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_verify_unknown_suite():
    assert main(["verify", "nope"]) == 1


def test_bench_brute_only(tmp_path, capsys):
    rc = main([
        "bench", "--algorithms", "brute", "--instances", "uniform-hamming",
        "--sizes", "32,64", "--queries", "5", "--dim", "16", "--seed", "3",
        "--out", str(tmp_path / "cells"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.0000" in out
    assert (tmp_path / "cells" / "brute_uniform-hamming_32.jsonl").exists()


def test_bench_records_partial_failures(capsys):
    rc = main([
        "bench", "--algorithms", "brute,nope", "--instances", "uniform-hamming",
        "--sizes", "32", "--queries", "4", "--dim", "16", "--seed", "3",
    ])
    assert rc == 0  # one cell failed, the sweep still completed
    out = capsys.readouterr().out
    assert "ERROR" in out and "1.0000" in out


def test_query_from_serialized_structure(tmp_path):
    prefix = str(tmp_path / "inst")
    assert main([
        "generate", "--instance", "uniform-hamming", "-n", "64", "--dim", "16",
        "--queries", "12", "--instance-seed", "6", "--out", prefix,
    ]) == 0
    ens_path = str(tmp_path / "ens.bin")
    common = [
        "--instance", f"file:{prefix}", "--metric", "hamming",
        "-k", "8", "-l", "64", "--seed", "21",
    ]
    assert main(["build", *common, "--structure", "ensemble", "--out", ens_path]) == 0
    rep_mem = str(tmp_path / "mem.jsonl")
    rep_file = str(tmp_path / "file.jsonl")
    assert main(["query", *common, "--algorithm", "forest-adaptive", "--out", rep_mem]) == 0
    assert main([
        "query", *common, "--algorithm", "forest-adaptive",
        "--structure-file", ens_path, "--out", rep_file,
    ]) == 0
    # loading the serialized ensemble gives query-identical results
    assert open(rep_mem).read() == open(rep_file).read()


def test_repetitions_rerun_queries_with_fresh_seeds():
    rows, summary = run_query_experiment({
        "instance": "uniform-hamming", "n": 48, "dim": 16, "queries": 5,
        "instance_seed": 8, "algorithm": "table-cs", "delta": 0.25,
        "k_cat": 6, "seed": 13, "repetitions": 3,
    })
    assert summary["repetitions"] == 3
    body = [json.loads(r) for r in rows[1:]]
    assert len(body) == 15
    assert {r["rep"] for r in body} == {0, 1, 2}


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_fewer_than_one_repetition_is_refused(tmp_path, capsys, reps):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"repetitions = {reps}\n")
    rc = main(["query", "--config", str(cfg), "--instance", "uniform-hamming", "-n", "16",
               "--dim", "8", "--queries", "2", "--algorithm", "brute",
               "--out", str(tmp_path / "r.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_config_booleans_are_words_or_refused(tmp_path):
    cfg = tmp_path / "exp.cfg"
    for word, want in [("TRUE", True), ("On", True), ("1", True), ("yes", True),
                       ("false", False), ("OFF", False), ("0", False), ("No", False)]:
        cfg.write_text(f"timings = {word}\n")
        assert resolve_config(str(cfg), {})["timings"] is want
    for word in ("ture", "2", "y"):
        cfg.write_text(f"timings = {word}\n")
        with pytest.raises(ValueError):
            resolve_config(str(cfg), {})


@pytest.mark.parametrize("command", ["generate", "build", "query"])
def test_threads_is_a_bench_option_only(tmp_path, capsys, command):
    rc = main([command, "--threads", "2", "--instance", "uniform-hamming", "-n", "16",
               "--dim", "8", "--queries", "2", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


def test_report_is_self_contained():
    # re-running from the embedded config record reproduces the report
    overrides = {
        "instance": "planted-nn", "n": 120, "dim": 32, "queries": 15,
        "instance_seed": 31, "algorithm": "forest-adaptive", "k": 12,
        "l": 128, "seed": 17,
    }
    rows, _ = run_query_experiment(dict(overrides))
    embedded = json.loads(rows[0])["config"]
    rows2, _ = run_query_experiment(embedded)
    assert rows == rows2


@pytest.mark.parametrize("truth", [
    pytest.param("0,1\n1,x\n2,3\n", id="non-numeric"),
    pytest.param("0,1\n1,2\n7,2\n", id="index-past-last-query"),
    pytest.param("0,1\n1,2\n-1,4\n", id="negative-index"),
    pytest.param("0,1\n1,2\n1,3\n", id="duplicate-index"),
    pytest.param("0,1\n1,2\n", id="missing-row"),
    pytest.param("0,1\n1,2\n2,40\n", id="id-past-last-point"),
    pytest.param("0,1\n1,2\n2,-1\n", id="negative-id"),
    pytest.param("0,1\n1,2\n2,3,4\n", id="extra-cell"),
    pytest.param("0,1\n1,2\n2," + "3" * 200_000 + "\n", id="field-past-csv-limit"),
])
def test_malformed_truth_csv_is_a_format_error(tmp_path, truth, capsys):
    prefix = str(tmp_path / "inst")
    assert main(["generate", "--instance", "uniform-hamming", "-n", "40", "--dim", "16",
                 "--queries", "3", "--out", prefix]) == 0
    with open(prefix + ".truth.csv", "w") as fh:
        fh.write(truth)
    with pytest.raises(FormatError):
        load_instance(prefix, Metric.HAMMING)
    capsys.readouterr()
    assert main(["query", "--instance", f"file:{prefix}", "--metric", "hamming",
                 "--algorithm", "brute"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_metric_without_a_shipped_family_is_refused(tmp_path, capsys):
    prefix = str(tmp_path / "ang")
    assert main(["generate", "--instance", "gaussian-angular", "-n", "64", "--dim", "8",
                 "--queries", "3", "--out", prefix]) == 0
    query = ["query", "--instance", f"file:{prefix}", "--metric", "euclidean", "--algorithm"]
    for algorithm in ("table-cs", "forest-adaptive", "budgeted-cs", "natural"):
        capsys.readouterr()
        assert main(query + [algorithm]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no shipped family for the euclidean metric")
        assert "Traceback" not in err
    assert main(query + ["brute"]) == 0


def test_bench_forks_no_more_workers_than_cells(monkeypatch, capsys):
    import concurrent.futures

    made = []

    class FakePool:
        # records its size and runs each cell in this process
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    bench = ["bench", "--algorithms", "brute", "--instances", "uniform-hamming",
             "--sizes", "32,64", "--queries", "3", "--dim", "16", "--seed", "3"]
    assert main(bench + ["--threads", "64"]) == 0
    assert made and all(w <= 2 for w in made)
    for threads in ("0", "-2"):
        capsys.readouterr()
        assert main(bench + ["--threads", threads]) == 1
        assert capsys.readouterr().err.startswith("error: --threads must be >= 1")
    assert len(made) == 1
