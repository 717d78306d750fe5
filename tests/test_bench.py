import csv
import io

import pytest

from harmonydcc.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    OracleViolation,
    compare,
    main,
    run_experiment,
)


def _tiny(**overrides):
    base = dict(
        engine="harmony",
        workload="ycsb",
        theta=0.6,
        keys=200,
        txns=200,
        block_size=10,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_is_reproducible_modulo_wall_time():
    _, row_a = run_experiment(_tiny())
    _, row_b = run_experiment(_tiny())
    stable = [c for c in CSV_COLUMNS if c != "wall_time"]
    assert [row_a[c] for c in stable] == [row_b[c] for c in stable]


def test_metrics_accounting():
    metrics, row = run_experiment(_tiny())
    assert metrics.committed + metrics.aborted == 200
    assert 0.0 <= metrics.abort_rate <= 1.0
    assert 0.0 <= metrics.hit_rate <= 1.0
    assert metrics.commits_per_second > 0
    assert row["false_abort_rate"] == ""  # oracle mode off


def test_oracle_mode_fills_false_abort_rate():
    metrics, row = run_experiment(_tiny(oracle_check=True, txns=120))
    assert metrics.false_abort_rate is not None
    assert row["false_abort_rate"] != ""
    assert 0.0 <= metrics.false_abort_rate <= metrics.abort_rate


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
        run_experiment(_tiny(oracle_check=True, txns=120))


def test_cli_run_writes_csv_and_dat(tmp_path, capsys):
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
    assert (tmp_path / "grid.dat").read_text().startswith("# engine workload")


def test_cli_rejects_inter_block_for_baselines(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--engine", "aria", "--inter-block"])
    assert excinfo.value.code == 2


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
        bench.oracle, "check_block", lambda block, result, store: ["forced failure"]
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


def test_config_file_supplies_defaults(tmp_path):
    from harmonydcc.pipeline import RunConfig

    config = RunConfig(
        replicas=2, block_size=10, delay_max=0.5, seed=9, engine="aria", checkpoint_p=5
    )
    path = tmp_path / "run.json"
    path.write_text(config.to_json())
    out = tmp_path / "from_config.csv"
    code = main(
        [
            "run",
            "--config",
            str(path),
            "--keys",
            "150",
            "--txns",
            "100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["engine"] == "aria"
    assert rows[0]["block_size"] == "10"


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        "null",
        "[1]",
        '{"replicas": "two"}',
        '{"seed": false}',
        '{"replicas": 0}',
        '{"checkpoint_p": 0}',
    ],
    ids=[
        "missing",
        "invalid-json",
        "null",
        "list",
        "str-for-int",
        "bool-for-int",
        "no-replicas",
        "zero-checkpoint-period",
    ],
)
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content)
    assert main(["run", "--config", str(path), "--txns", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_replica_count_below_one_is_a_usage_error(capsys, replicas):
    assert main(["run", "--replicas", replicas, "--txns", "10", "--keys", "50"]) == 2
    err = capsys.readouterr().err
    assert err == "error: replica count must be positive\n"


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
