"""Benchmark CLI: engine x workload x option grids, CSV output, comparisons.

Each grid point is one pipeline.RunConfig and one workloads.WorkloadSpec.
The same flags and seed produce a byte-identical CSV apart from the wall_time
column. Throughput (commits per second) is a model: commits over the
pipeline's deterministic event clock, which charges each block fitted stage
costs and network delay; wall_time reports real elapsed seconds.
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
    false_abort_rate: Optional[float]  # oracle mode, intra-block only
    hit_rate: float
    wall_time: float
    commits_per_second: float


def run_experiment(
    config: RunConfig, spec: WorkloadSpec, txns: int, oracle_check: bool = False
) -> tuple[RunMetrics, dict[str, str]]:
    """One grid point: generate txns programs, seal blocks of
    config.block_size, run, measure; returns the metrics and a formatted
    CSV row."""
    blocks = make_blocks(generate(spec, txns), config.block_size)
    started = time.perf_counter()
    outcome = run_replicas(blocks, config)
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
    if oracle_check:
        # a store of its own, fed the reported writes: a replica store that
        # installs other values than it reports then fails the hash check
        problems: list[str] = []
        store = SnapshotStore()
        false_aborts = 0  # the serial engine never aborts
        for block, result, recorded in zip(blocks, results, outcome.hash_matrix[0]):
            if config.engine == "serial":
                problems.extend(oracle.check_serial_block(block, result, store))
            else:
                graph = oracle.build_graph(result)
                problems.extend(oracle.check_block(block, result, store, graph))
                if not config.inter_block:  # a per-block count misses cross-block edges
                    false_aborts += len(oracle.false_aborts(result, graph))
            store.install_block_writes(block.id, result.writes)
            if store.state_hash() != recorded:
                problems.append(
                    f"block {block.id}: the replica's state hash is not that "
                    f"of its reported writes"
                )
        if problems:
            raise OracleViolation("; ".join(problems))
        if not config.inter_block:
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
        "workload": spec.kind,
        "theta": f"{spec.theta:g}",
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
    run.add_argument("--engine", nargs="+", default=["harmony"], choices=ENGINE_KINDS)
    run.add_argument("--workload", nargs="+", default=["ycsb"], choices=WORKLOAD_KINDS)
    run.add_argument("--theta", nargs="+", type=float, default=[0.6])
    run.add_argument("--keys", type=int, default=10_000)
    run.add_argument("--txns", type=int, default=5_000)
    run.add_argument("--block-size", nargs="+", type=int, default=[25])
    run.add_argument("--replicas", type=int, default=1)
    run.add_argument("--inter-block", action=argparse.BooleanOptionalAction, default=False)
    run.add_argument("--update-optim", action=argparse.BooleanOptionalAction, default=True)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--delay-max", type=float, default=0.0)
    run.add_argument("--hotspot-prob", type=float, default=0.5)
    run.add_argument("--oracle-check", action="store_true")
    run.add_argument("--out", type=str, help="CSV output path")
    cmp_ = sub.add_parser("compare", help="rank engines across CSV outputs")
    cmp_.add_argument("files", nargs="+")
    return parser


def _grid(args: argparse.Namespace) -> list[tuple[RunConfig, WorkloadSpec]]:
    """Every grid point's run settings and workload, all validated before
    any point runs."""
    return [
        (
            RunConfig(
                replicas=args.replicas,
                block_size=block_size,
                delay_max=args.delay_max,
                seed=args.seed,
                engine=engine,
                inter_block=args.inter_block,
                update_optim=args.update_optim,
            ),
            WorkloadSpec(
                kind=workload,
                keys=args.keys,
                theta=theta,
                hotspot_prob=args.hotspot_prob,
                seed=args.seed,
            ),
        )
        for engine, workload, theta, block_size in product(
            args.engine, args.workload, args.theta, args.block_size
        )
    ]


def _csv_text(rows: list[dict[str, str]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            print(compare(args.files))
            return 0
        if args.out and not Path(args.out).parent.is_dir():
            # fail before the grid runs rather than after
            raise ContractError(f"--out {args.out}: its directory does not exist")
        points = _grid(args)
        outcomes = [
            run_experiment(config, spec, args.txns, args.oracle_check)
            for config, spec in points
        ]
        text = _csv_text([row for _, row in outcomes])
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except OracleViolation as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, ContractError, ReplicaDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        print(text, end="")
    else:
        for (config, spec), (metrics, _) in zip(points, outcomes):
            print(
                f"{config.engine}/{spec.kind} theta={spec.theta:g} "
                f"block={config.block_size}: abort_rate={metrics.abort_rate:.4f} "
                f"model commits/s={metrics.commits_per_second:.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
