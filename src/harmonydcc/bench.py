"""Benchmark CLI: engine x workload x option grids, CSV output, comparisons.

Same config and seed produce a byte-identical CSV apart from the wall_time
column. Throughput (commits per second) is measured against the pipeline's
deterministic event clock, which models execution occupancy and network
delay; wall_time reports real elapsed seconds and is informational only.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

from . import oracle
from .core import ContractError
from .pipeline import ENGINE_KINDS, RunConfig, make_blocks, run_replicas
from .storage import SnapshotStore
from .workloads import WORKLOAD_KINDS, WorkloadSpec, generate

CSV_COLUMNS = (
    "engine",
    "workload",
    "theta",
    "block_size",
    "inter_block",
    "update_optim",
    "committed",
    "aborted",
    "abort_rate",
    "false_abort_rate",
    "hit_rate",
    "wall_time",
)
COMPARE_COLUMNS = (
    "engine", "workload", "theta", "block_size", "inter_block", "update_optim", "abort_rate",
)


class OracleViolation(RuntimeError):
    """A processed block failed an oracle invariant."""


class ReplicaDivergence(RuntimeError):
    """Replicas produced different state hashes for the same stream."""


@dataclass
class RunMetrics:
    committed: int
    aborted: int
    abort_rate: float
    false_abort_rate: Optional[float]  # oracle mode only
    hit_rate: float
    wall_time: float
    commits_per_second: float


@dataclass(frozen=True)
class ExperimentConfig:
    engine: str = "harmony"
    workload: str = "ycsb"
    theta: float = 0.6
    keys: int = 10_000
    txns: int = 5_000
    block_size: int = 25
    replicas: int = 1
    inter_block: bool = False
    update_optim: bool = True
    seed: int = 42
    delay_max: float = 0.0
    hotspot_prob: float = 0.5
    oracle_check: bool = False


def run_experiment(config: ExperimentConfig) -> tuple[RunMetrics, dict[str, str]]:
    """One grid point: generate, sequence, run, measure; returns the metrics
    and a formatted CSV row."""
    spec = WorkloadSpec(
        kind=config.workload,
        keys=config.keys,
        theta=config.theta,
        hotspot_prob=config.hotspot_prob,
        seed=config.seed,
    )
    programs = generate(spec, config.txns)
    blocks = make_blocks(programs, config.block_size)
    run_config = RunConfig(
        replicas=config.replicas,
        block_size=config.block_size,
        delay_max=config.delay_max,
        seed=config.seed,
        engine=config.engine,
        inter_block=config.inter_block,
        update_optim=config.update_optim,
    )
    started = time.perf_counter()
    outcome = run_replicas(blocks, run_config)
    wall_time = time.perf_counter() - started
    if not outcome.rows_identical():
        raise ReplicaDivergence(
            f"state hashes diverged across {config.replicas} replicas"
        )
    results = outcome.results[0]
    committed = sum(len(r.committed) for r in results)
    aborted = sum(len(r.aborted) for r in results)
    total = committed + aborted
    false_rate: Optional[float] = None
    if config.oracle_check:
        # a store of its own, fed the reported writes: a replica store that
        # installs other values than it reports then fails the hash check
        problems: list[str] = []
        store = SnapshotStore()
        false_aborts = 0
        for block, result, recorded in zip(blocks, results, outcome.hash_matrix[0]):
            problems.extend(oracle.check_block(block, result, store))
            store.install_block_writes(block.id, result.writes)
            if store.state_hash() != recorded:
                problems.append(
                    f"block {block.id}: the replica's state hash is not that "
                    f"of its reported writes"
                )
            for tid in result.aborted:
                if oracle.false_abort(result, tid):
                    false_aborts += 1
        if problems:
            raise OracleViolation("; ".join(problems))
        false_rate = false_aborts / total if total else 0.0
    metrics = RunMetrics(
        committed=committed,
        aborted=aborted,
        abort_rate=aborted / total if total else 0.0,
        false_abort_rate=false_rate,
        hit_rate=oracle.hit_rate(results),
        wall_time=wall_time,
        commits_per_second=committed / outcome.makespans[0]
        if outcome.makespans[0] > 0
        else 0.0,
    )
    row = {
        "engine": config.engine,
        "workload": config.workload,
        "theta": f"{config.theta:g}",
        "block_size": str(config.block_size),
        "inter_block": "true" if config.inter_block else "false",
        "update_optim": "true" if config.update_optim else "false",
        "committed": str(committed),
        "aborted": str(aborted),
        "abort_rate": f"{metrics.abort_rate:.6f}",
        "false_abort_rate": "" if false_rate is None else f"{false_rate:.6f}",
        "hit_rate": f"{metrics.hit_rate:.6f}",
        "wall_time": f"{wall_time:.6f}",
    }
    return metrics, row


# ---------------------------------------------------------------------------
# Comparison of CSV outputs


def _label(row: dict[str, str]) -> str:
    """The engine name, plus each switch that differs from its default."""
    defaults = (("inter_block", "false"), ("update_optim", "true"))
    return row["engine"] + "".join(f"[{s}={row[s]}]" for s, d in defaults if row[s] != d)


def compare(paths: Sequence[str | Path]) -> str:
    """Join runs on (workload, theta, block_size) and rank the engines,
    told apart by their switches, at every common grid point by abort
    rate."""
    rows: list[dict[str, str]] = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or ()  # an empty file has no rows
            missing = [c for c in COMPARE_COLUMNS if c not in header]
            if header and missing:
                raise ContractError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                try:
                    float(row["abort_rate"])
                except (TypeError, ValueError):
                    raise ContractError(
                        f"{path}: abort_rate {row['abort_rate']!r} is not a number"
                    ) from None
                rows.append(row)
    if not rows:
        return "no rows found"
    grid: dict[tuple[str, str, str], dict[tuple[str, str, str], dict[str, str]]] = {}
    for row in rows:
        point = (row["workload"], row["theta"], row["block_size"])
        variant = (row["engine"], row["inter_block"], row["update_optim"])
        grid.setdefault(point, {})[variant] = row
    engine_sets = {frozenset(engines) for engines in grid.values()}
    lines: list[str] = []
    common = [point for point, engines in grid.items() if len(engines) > 1]
    if not common:
        if len(grid) <= 1 and len(engine_sets) <= 1:
            lines.append("single grid: nothing to rank against")
            for point, engines in sorted(grid.items()):
                for _, row in sorted(engines.items()):
                    lines.append(
                        f"{point[0]} theta={point[1]} block={point[2]} "
                        f"{_label(row)}: abort_rate={row['abort_rate']}"
                    )
            return "\n".join(lines)
        return "no common grid points across the inputs"
    if len(engine_sets) > 1:
        lines.append("warning: grids are mismatched; ranking common points only")
    for point in sorted(common):
        engines = grid[point]
        ranked = sorted(engines.values(), key=lambda row: float(row["abort_rate"]))
        order = " <= ".join(
            f"{_label(row)}({float(row['abort_rate']):.4f})" for row in ranked
        )
        lines.append(
            f"{point[0]} theta={point[1]} block={point[2]}: abort_rate {order}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmony-bench",
        description="Run deterministic concurrency-control benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an engine/workload grid")
    run.add_argument("--engine", nargs="+", choices=ENGINE_KINDS)
    run.add_argument("--workload", nargs="+", default=["ycsb"], choices=WORKLOAD_KINDS)
    run.add_argument("--theta", nargs="+", type=float, default=[0.6])
    run.add_argument("--keys", type=int, default=10_000)
    run.add_argument("--txns", type=int, default=5_000)
    run.add_argument("--block-size", nargs="+", type=int)
    run.add_argument("--replicas", type=int)
    run.add_argument("--inter-block", action=argparse.BooleanOptionalAction)
    run.add_argument("--update-optim", action=argparse.BooleanOptionalAction)
    run.add_argument("--seed", type=int)
    run.add_argument("--delay-max", type=float)
    run.add_argument("--hotspot-prob", type=float, default=0.5)
    run.add_argument("--oracle-check", action="store_true")
    run.add_argument("--config", type=str, help="JSON config file supplying defaults")
    run.add_argument("--out", type=str, help="CSV output path (plus a .dat twin)")
    cmp_ = sub.add_parser("compare", help="rank engines across CSV outputs")
    cmp_.add_argument("files", nargs="+")
    return parser


def _grid(args: argparse.Namespace) -> list[ExperimentConfig]:
    base = RunConfig.from_file(args.config) if args.config else RunConfig(replicas=1)

    def pick(flag, fallback):
        return fallback if flag is None else flag

    engines = pick(args.engine, [base.engine])
    block_sizes = pick(args.block_size, [base.block_size])
    configs = []
    for engine, workload, theta, block_size in product(
        engines, args.workload, args.theta, block_sizes
    ):
        configs.append(
            ExperimentConfig(
                engine=engine,
                workload=workload,
                theta=theta,
                keys=args.keys,
                txns=args.txns,
                block_size=block_size,
                replicas=pick(args.replicas, base.replicas),
                inter_block=pick(args.inter_block, base.inter_block),
                update_optim=pick(args.update_optim, base.update_optim),
                seed=pick(args.seed, base.seed if args.config else 42),
                delay_max=pick(args.delay_max, base.delay_max),
                hotspot_prob=args.hotspot_prob,
                oracle_check=args.oracle_check,
            )
        )
    return configs


def _write_outputs(rows: list[dict[str, str]], out: Optional[str]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if out:
        path = Path(out)
        path.write_text(text, encoding="utf-8")
        dat = path.with_suffix(".dat")
        with open(dat, "w", encoding="utf-8") as fh:
            fh.write("# " + " ".join(CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(
                    " ".join(row[col] if row[col] != "" else "nan" for col in CSV_COLUMNS)
                    + "\n"
                )
    return text


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            print(compare(args.files))
            return 0
        if args.out and not Path(args.out).parent.is_dir():
            # fail before the grid runs rather than after
            raise ContractError(f"--out {args.out}: its directory does not exist")
        configs = _grid(args)
        if any(
            (c.inter_block or not c.update_optim) and c.engine != "harmony"
            for c in configs
        ):
            parser.error(
                "--inter-block / --no-update-optim only apply to --engine harmony"
            )
        outcomes = [run_experiment(c) for c in configs]
        text = _write_outputs([row for _, row in outcomes], args.out)
    except OracleViolation as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, ContractError, ReplicaDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        print(text, end="")
    else:
        for config, (metrics, _) in zip(configs, outcomes):
            print(
                f"{config.engine}/{config.workload} theta={config.theta:g} "
                f"block={config.block_size}: abort_rate={metrics.abort_rate:.4f} "
                f"commits/s={metrics.commits_per_second:.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
