import csv
import importlib
import io
from pathlib import Path

import pytest

from harmonydcc.bench import (
    CSV_COLUMNS,
    OracleViolation,
    compare,
    main,
    run_experiment,
)
from harmonydcc.pipeline import RunConfig
from harmonydcc.workloads import WorkloadSpec


def test_exports_and_console_script_resolve():
    """Every name harmonydcc exports exists, and every console script in
    pyproject.toml names a callable."""
    tomllib = pytest.importorskip("tomllib")
    import harmonydcc

    assert [name for name in harmonydcc.__all__ if not hasattr(harmonydcc, name)] == []
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["harmony-bench"] == "harmonydcc.bench:main"
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def _run(txns=200, oracle_check=False, workload="ycsb", theta=0.6, keys=200, **config):
    """run_experiment on a small grid point: one replica, blocks of 10 and
    seed 5 unless overridden."""
    run_config = RunConfig(**{"replicas": 1, "block_size": 10, "seed": 5, **config})
    spec = WorkloadSpec(
        kind=workload, keys=keys, theta=theta, hotspot_prob=0.5, seed=run_config.seed
    )
    return run_experiment(run_config, spec, txns, oracle_check)


def test_run_experiment_is_reproducible_modulo_wall_time():
    _, row_a = _run()
    _, row_b = _run()
    stable = [c for c in CSV_COLUMNS if c != "wall_time"]
    assert [row_a[c] for c in stable] == [row_b[c] for c in stable]


def test_metrics_accounting():
    metrics, row = _run()
    assert metrics.committed + metrics.aborted == 200
    assert 0.0 <= metrics.abort_rate <= 1.0
    assert 0.0 <= metrics.hit_rate <= 1.0
    assert metrics.commits_per_second > 0
    assert row["false_abort_rate"] == ""  # oracle mode off


def test_oracle_mode_fills_false_abort_rate():
    metrics, row = _run(oracle_check=True, txns=120)
    assert metrics.false_abort_rate is not None
    assert row["false_abort_rate"] != ""
    assert 0.0 <= metrics.false_abort_rate <= metrics.abort_rate


def test_oracle_check_builds_each_block_graph_once(monkeypatch):
    """The oracle check builds a block's dependency graph once; check_block
    replays its topological order and false_aborts reads the same graph."""
    from harmonydcc import oracle

    calls = []
    build_graph = oracle.build_graph

    def counted(result):
        calls.append(result.block_id)
        return build_graph(result)

    monkeypatch.setattr(oracle, "build_graph", counted)
    _run(theta=0.99, keys=2000, txns=2500, block_size=25, oracle_check=True)
    assert calls == list(range(100))


def test_inter_block_oracle_check_leaves_false_abort_rate_empty(monkeypatch):
    """A per-block false-abort count ignores cross-block edges, so an
    inter-block run reports none; its blocks are still checked."""
    from harmonydcc import oracle

    checked = []
    check_block = oracle.check_block

    def counted(block, result, store, graph):
        checked.append(block.id)
        return check_block(block, result, store, graph)

    monkeypatch.setattr(oracle, "check_block", counted)
    metrics, row = _run(
        inter_block=True, theta=0.9, keys=50, txns=600, block_size=5, oracle_check=True
    )
    assert metrics.false_abort_rate is None and row["false_abort_rate"] == ""
    assert checked == list(range(120))


def test_oracle_check_catches_a_replica_store_installing_other_values(monkeypatch):
    """The replica's store installs a value other than the reported one at
    block 3; the oracle replays the reported writes into its own store, so
    the replica's state hash no longer matches from that block on."""
    from harmonydcc import pipeline
    from harmonydcc.storage import SnapshotStore

    class SkewedStore(SnapshotStore):
        def install_block_writes(self, block, writes):
            if block == 3 and writes:
                key = min(writes)
                writes = {**writes, key: writes[key] + 1}
            super().install_block_writes(block, writes)

    monkeypatch.setattr(pipeline, "SnapshotStore", SkewedStore)
    with pytest.raises(OracleViolation, match="block 3: "):
        _run(oracle_check=True, txns=120)


def test_cli_run_writes_only_the_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "run",
            "--engine",
            "harmony",
            "aria",
            "--workload",
            "ycsb",
            "--theta",
            "0.6",
            "--keys",
            "200",
            "--txns",
            "150",
            "--block-size",
            "10",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert {r["engine"] for r in rows} == {"harmony", "aria"}
    assert [path.name for path in tmp_path.iterdir()] == ["grid.csv"]


def test_cli_rejects_inter_block_for_baselines(capsys):
    assert main(["run", "--engine", "aria", "--inter-block"]) == 2
    assert capsys.readouterr().err == (
        "error: inter_block / update_optim switches only apply to the harmony "
        "engine, not 'aria'\n"
    )


def test_cli_oracle_check_small_run_passes(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main(
        [
            "run",
            "--engine",
            "harmony",
            "--theta",
            "0.8",
            "--keys",
            "64",
            "--txns",
            "64",
            "--block-size",
            "8",
            "--oracle-check",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0


def test_cli_stdout_when_no_out_path(capsys):
    code = main(
        [
            "run",
            "--keys",
            "100",
            "--txns",
            "50",
            "--block-size",
            "10",
            "--theta",
            "0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    header = captured.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def _rows_to_csv(rows):
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def _fake_row(
    engine, workload="ycsb", theta="0.6", block="25", abort="0.1", inter_block="false"
):
    return {
        "engine": engine,
        "workload": workload,
        "theta": theta,
        "block_size": block,
        "inter_block": inter_block,
        "update_optim": "true",
        "committed": "90",
        "aborted": "10",
        "abort_rate": abort,
        "false_abort_rate": "",
        "hit_rate": "0.05",
        "wall_time": "0.1",
    }


def test_compare_ranks_engines(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(_rows_to_csv([_fake_row("harmony", abort="0.02")]))
    b.write_text(_rows_to_csv([_fake_row("aria", abort="0.30")]))
    report = compare([a, b])
    assert "harmony(0.0200) <= aria(0.3000)" in report


def test_compare_keeps_harmony_rows_with_different_switches_apart(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    intra = [_fake_row("harmony", abort="0.02"), _fake_row("aria", abort="0.30")]
    a.write_text(_rows_to_csv(intra))
    b.write_text(_rows_to_csv([_fake_row("harmony", abort="0.40", inter_block="true")]))
    report = compare([a, b])
    assert (
        "harmony(0.0200) <= aria(0.3000) <= harmony[inter_block=true](0.4000)" in report
    )


def test_compare_single_file_identity(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text(_rows_to_csv([_fake_row("harmony")]))
    report = compare([a])
    assert "single grid" in report


def test_compare_reports_empty_join(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(_rows_to_csv([_fake_row("harmony", theta="0")]))
    b.write_text(_rows_to_csv([_fake_row("aria", theta="1")]))
    report = compare([a, b])
    assert "no common grid" in report


def test_oracle_violation_exits_2(monkeypatch, tmp_path):
    from harmonydcc import bench

    monkeypatch.setattr(
        bench.oracle, "check_block", lambda block, result, store, graph: ["forced failure"]
    )
    code = main(
        [
            "run",
            "--keys",
            "100",
            "--txns",
            "40",
            "--block-size",
            "10",
            "--oracle-check",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_replica_count_below_one_is_a_usage_error(capsys, replicas):
    assert main(["run", "--replicas", replicas, "--txns", "10", "--keys", "50"]) == 2
    err = capsys.readouterr().err
    assert err == "error: replica count must be positive\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--block-size", "25", "0"], "block size must be positive"),
        (["--theta", "0.5", "1.5"], "theta must lie in [0, 1]"),
        (["--keys", "0"], "key count must be positive"),
        (["--hotspot-prob", "1.5"], "hotspot probability must lie in [0, 1]"),
        (["--hotspot-prob", "-1"], "hotspot probability must lie in [0, 1]"),
    ],
    ids=["block-size", "theta", "keys", "hotspot-prob-above-1", "hotspot-prob-negative"],
)
def test_a_bad_grid_value_is_rejected_before_any_point_runs(
    monkeypatch, capsys, flags, message
):
    import harmonydcc.bench

    ran = []
    monkeypatch.setattr(harmonydcc.bench, "run_experiment", lambda *args: ran.append(args))
    assert main(["run", "--txns", "20", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ran == []


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "content",
    [
        None,
        "engine,theta\nharmony,0.6\n",
        _rows_to_csv([_fake_row("harmony", abort="x")]),
    ],
    ids=["missing", "no-workload-column", "non-numeric-abort-rate"],
)
def test_bad_compare_input_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "runs.csv"
    if content is not None:
        path.write_text(content)
    assert main(["compare", str(path)]) == 2
    _assert_one_error_line(capsys)


def test_out_path_in_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "grid.csv"
    assert main(["run", "--txns", "10", "--keys", "50", "--out", str(out)]) == 2
    _assert_one_error_line(capsys)


def test_cli_oracle_check_passes_on_the_serial_engine(capsys):
    """A serial block reads the writes of lower TIDs, so it is checked by a
    TID-order replay instead of the snapshot dependency graph."""
    code = main(
        ["run", "--engine", "serial", "--keys", "100", "--txns", "100",
         "--block-size", "10", "--oracle-check"]
    )
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("field", ["reads", "writes"])
def test_serial_oracle_check_catches_an_altered_result(monkeypatch, field):
    import dataclasses

    from harmonydcc import bench

    real = bench.run_replicas

    def altered(blocks, config):
        outcome = real(blocks, config)
        results = outcome.results[0]
        result = results[4]
        if field == "reads":
            tid = next(t for t in result.reads if result.reads[t])
            first, *rest = result.reads[tid]
            record = first._replace(observed=(first.observed or 0) + 1)
            change = {"reads": {**result.reads, tid: (record, *rest)}}
        else:
            key = min(result.writes)
            change = {"writes": {**result.writes, key: result.writes[key] + 1}}
        results[4] = dataclasses.replace(result, **change)
        return outcome

    monkeypatch.setattr(bench, "run_replicas", altered)
    with pytest.raises(OracleViolation, match="^block 4: a serial replay"):
        _run(engine="serial", keys=100, txns=100, oracle_check=True)


# committed, aborted, false_abort_rate and hit_rate of every row of the
# theta 0.99, 200-key, 500-transaction, seed-5 grid, generated while
# false_aborts still copied the graph per aborted transaction
GRID_ROWS = {
    ("harmony", "ycsb"): (56, 444, "0.462000", "0.888000"),
    ("harmony", "smallbank"): (444, 56, "0.030000", "0.112000"),
    ("harmony", "hotspot"): (164, 336, "0.454000", "0.672000"),
    ("fabric", "ycsb"): (50, 450, "0.058000", "0.000000"),
    ("fabric", "smallbank"): (361, 139, "0.076000", "0.000000"),
    ("fabric", "hotspot"): (21, 479, "0.000000", "0.000000"),
    ("aria", "ycsb"): (30, 470, "0.244000", "0.000000"),
    ("aria", "smallbank"): (399, 101, "0.022000", "0.000000"),
    ("aria", "hotspot"): (20, 480, "0.002000", "0.000000"),
    ("serial", "ycsb"): (500, 0, "0.000000", "0.000000"),
    ("serial", "smallbank"): (500, 0, "0.000000", "0.000000"),
    ("serial", "hotspot"): (500, 0, "0.000000", "0.000000"),
}


@pytest.mark.parametrize(
    "engine, workload, rate",
    [(engine, workload, row[2]) for (engine, workload), row in GRID_ROWS.items()],
)
def test_false_abort_rate_is_pinned(engine, workload, rate):
    _, row = _run(
        engine=engine, workload=workload, theta=0.99, txns=500, block_size=25,
        oracle_check=True,
    )
    committed, aborted, _, hit_rate = GRID_ROWS[engine, workload]
    assert row["false_abort_rate"] == rate
    assert (row["committed"], row["aborted"], row["hit_rate"]) == (
        str(committed), str(aborted), hit_rate
    )


def test_false_aborts_build_no_graph_and_read_records_once_per_block(monkeypatch):
    from harmonydcc import oracle
    from harmonydcc.engine import BlockReads, HarmonyEngine
    from harmonydcc.pipeline import make_blocks
    from harmonydcc.storage import SnapshotStore
    from harmonydcc.workloads import WorkloadSpec, generate

    spec = WorkloadSpec(kind="ycsb", keys=50, theta=0.99, seed=5)
    block = make_blocks(generate(spec, 25), 25)[0]
    result = HarmonyEngine(SnapshotStore()).process_block(block)
    assert len(result.aborted) > 3
    graph = oracle.build_graph(result)
    expected = {1, 2, 9, 10, 12, 16, 23}  # the unnecessary aborts of this block
    calls = {"graph": 0, "records": 0}
    build_graph, getitem = oracle.build_graph, BlockReads.__getitem__

    def counted_graph(r):
        calls["graph"] += 1
        return build_graph(r)

    def counted_getitem(reads, tid):
        calls["records"] += 1
        return getitem(reads, tid)

    monkeypatch.setattr(oracle, "build_graph", counted_graph)
    monkeypatch.setattr(BlockReads, "__getitem__", counted_getitem)
    assert oracle.false_aborts(result, graph) == expected
    assert calls == {"graph": 0, "records": len(block.txns)}
