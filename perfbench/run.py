"""Wall-clock benchmark of one harmonydcc replica, end to end and per layer.

    python3 perfbench/run.py --workload ycsb-hot --seed 1 --seconds 24 --trace 0

A run repeats whole rounds until ``--seconds`` of measured stream time have
passed and at least MIN_ROUNDS rounds have run. Each round generates the
workload from the seed, seals it into blocks and preloads the keyspace
through ``Replica.receive`` (set-up), then feeds the measured blocks to a
fresh ``pipeline.Replica`` one at a time (closed loop, one block in flight,
one thread), recovers the replica from its data directory (first
MIN_ROUNDS rounds), and checks every output outside the timed regions. The last line of standard output is one JSON object with the
metrics. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import harmonydcc
    from harmonydcc import core, pipeline, storage, workloads
    from harmonydcc.core import GENESIS_PREV_HASH, Transaction, UpdateStep
except ImportError as exc:  # run outside a checkout of the repository
    sys.exit(f"perfbench: cannot import harmonydcc from {ROOT / 'src'}: {exc}")
if not Path(harmonydcc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: harmonydcc was imported from {harmonydcc.__file__}, not {ROOT / 'src'}")

import checks  # noqa: E402  (needs the path set above)
from tracing import Tracer  # noqa: E402

BLOCK_SIZE = 25
PRELOAD_BLOCK_SIZE = 500
MIN_ROUNDS = 5  # set-up and recovery are reported as medians over rounds


@dataclass(frozen=True)
class Workload:
    kind: str  # harmonydcc.workloads kind
    keys: int  # YCSB keys or Smallbank accounts
    theta: float
    round_blocks: int  # measured blocks per round
    durable: bool  # file-backed chain log and checkpoints while measured
    preload_max: int  # preloaded values are uniform in [0, preload_max]


WORKLOADS = {
    "ycsb-hot": Workload("ycsb", 2_000, 0.99, 1_000, False, 1_000_000),
    "smallbank-durable": Workload("smallbank", 5_000, 0.6, 500, True, 1_000),
}


@dataclass
class Round:
    setup_s: float
    measured_s: float
    block_s: list[float]
    attempted: int  # measured blocks delivered
    failed: set[int]  # measured block ids that raised, halted or failed a check
    problems: list[str]
    mismatches: int  # problems found by an output check
    submitted_txns: int  # preload and measured
    measured_txns: int
    committed: int
    aborted: int
    recovery_s: float | None  # None: this round did not recover
    log_bytes: int
    checkpoint_bytes: int
    digests: list[int]  # output_digest of every measured block
    layers: dict = field(default_factory=dict)


def seal(programs, size: int, first_block: int, first_tid: int, prev_hash: str):
    """Seal programs into hash-linked blocks of ``size`` transactions."""
    blocks = []
    for start in range(0, len(programs), size):
        block_id = first_block + len(blocks)
        txns = [
            Transaction(first_tid + start + i, block_id, tuple(program))
            for i, program in enumerate(programs[start : start + size])
        ]
        blocks.append(core.seal_block(block_id, txns, prev_hash))
        prev_hash = blocks[-1].hash
    return blocks


def preload_values(programs, seed: int, top: int) -> dict[str, int]:
    """A seeded value for every key the measured stream touches."""
    keys = sorted({step.key for program in programs for step in program})
    rng = random.Random(f"{seed}:preload")
    return {key: rng.randint(0, top) for key in keys}


def rebuild(store, engine_state):
    engine = pipeline.build_engine("harmony", store, pipeline.RunConfig(replicas=1))
    engine.restore_state(engine_state)
    return engine


def archive(replica, directory: Path) -> None:
    """Write an in-memory replica's chain and a checkpoint of its final
    state to ``directory``, where ``storage.recover`` reads them."""
    log = storage.ChainLog(directory / storage.CHAIN_FILE)
    try:
        for block in replica.chain.blocks:
            log.append_block(block)
    finally:
        log.close()
    storage.CheckpointManager(directory, p=1).maybe_checkpoint(
        replica.store, replica.results[-1].writes, replica.engine.export_state()
    )


def versions_retained(store) -> int:
    """Versions the store holds. It has no public count, so this reads its
    version table and falls back to the visible keys if that is renamed."""
    versions = getattr(store, "_versions", None)
    if isinstance(versions, dict):
        return sum(len(v) for v in versions.values())
    return len(store.visible_state())


def run_round(
    wl: Workload,
    seed: int,
    data_dir: Path,
    tracer: Tracer | None,
    reference: list[int] | None,
    recover: bool = True,
) -> Round:
    """One round. The first round of a run is checked in full; later rounds
    run the same inputs and must reproduce its outputs block for block.
    With ``recover``, the replica is recovered from its data directory
    (written by an in-memory replica's archive) and the recovery checked."""
    gc.collect()
    clock = time.perf_counter
    # -- set-up: generate, seal, preload --------------------------------
    started = clock()
    spec = workloads.WorkloadSpec(kind=wl.kind, keys=wl.keys, theta=wl.theta, seed=seed)
    programs = workloads.generate(spec, wl.round_blocks * BLOCK_SIZE)
    preload = preload_values(programs, seed, wl.preload_max)
    preload_programs = [(UpdateStep(key, "set", value),) for key, value in preload.items()]
    pre_blocks = seal(preload_programs, PRELOAD_BLOCK_SIZE, 0, 0, GENESIS_PREV_HASH)
    blocks = seal(programs, BLOCK_SIZE, len(pre_blocks), len(preload_programs), pre_blocks[-1].hash)
    data_dir.mkdir(parents=True)
    replica = pipeline.Replica(
        0,
        pipeline.RunConfig(replicas=1, block_size=BLOCK_SIZE),  # checkpoint every 10 blocks
        data_dir=data_dir if wl.durable else None,
    )
    pre_results = [replica.receive(block) for block in pre_blocks]
    if any(result is None for result in pre_results):
        raise RuntimeError("the replica halted while preloading")
    setup_s = clock() - started
    phases = {"setup": tracer.take()} if tracer else {}

    # -- measured stream ------------------------------------------------
    if tracer:
        tracer.gc_watch(True)
    block_s: list[float] = []
    results = []
    failed: set[int] = set()
    problems: list[str] = []
    started = clock()
    for block in blocks:
        t0 = clock()
        try:
            result = replica.receive(block)
        except Exception:
            failed.add(block.id)
            problems.append(f"block {block.id} raised:\n{traceback.format_exc()}")
            break
        block_s.append(clock() - t0)
        if result is None:
            failed.add(block.id)
            problems.append(f"block {block.id}: replica halted")
            break
        results.append(result)
    measured_s = clock() - started
    if tracer:
        tracer.gc_watch(False)
        phases["measured"] = tracer.take()
    attempted = len(block_s) + (1 if failed else 0)
    done = blocks[: len(results)]
    last_id = blocks[attempted - 1].id

    # -- durability: the data directory and recovery from it -------------
    recovered = recovery_s = None
    if recover and wl.durable:
        replica.chain.close()
    elif recover and results:
        archive(replica, data_dir)
    if tracer:
        phases["archive"] = tracer.take()
    if recover:
        started = clock()
        try:
            recovered = storage.recover(data_dir, rebuild)
        except Exception:
            failed.add(last_id)
            problems.append(f"recovery raised:\n{traceback.format_exc()}")
        recovery_s = clock() - started
    if tracer:
        phases["recover"] = tracer.take()
    log_bytes = checkpoint_bytes = 0
    for path in data_dir.iterdir():
        if path.name == storage.CHAIN_FILE:
            log_bytes += path.stat().st_size
        else:
            checkpoint_bytes += path.stat().st_size

    # -- output checks, outside every timed region ------------------------
    if reference is None:
        found = full_check(wl, pre_blocks, pre_results, done, results, preload, replica, recovered)
    else:
        found = same_outputs(reference, results)
    if recovered is not None:
        found += [(None, problem) for problem in check_recovery(replica, recovered)]
    for block_id, problem in found:
        failed.add(last_id if block_id is None else block_id)
        problems.append(problem)

    layers = layer_metrics(phases, results, replica.store, log_bytes, checkpoint_bytes) if tracer else {}
    committed = sum(len(r.committed) for r in results)
    aborted = sum(len(r.aborted) for r in results)
    digests = [output_digest(r) for r in results]
    replica.close()
    shutil.rmtree(data_dir)
    return Round(
        setup_s=setup_s,
        measured_s=measured_s,
        block_s=block_s,
        attempted=attempted,
        failed=failed,
        problems=problems,
        mismatches=len(found),
        submitted_txns=len(preload_programs) + len(programs),
        measured_txns=sum(len(b.txns) for b in blocks[:attempted]),
        committed=committed,
        aborted=aborted,
        recovery_s=recovery_s,
        log_bytes=log_bytes,
        checkpoint_bytes=checkpoint_bytes,
        digests=digests,
        layers=layers,
    )


def output_digest(result) -> int:
    """Everything the checks read from one block's result, as one number."""
    reads = tuple((tid, tuple(records)) for tid, records in sorted(result.reads.items()))
    return hash((
        tuple(sorted(result.committed)),
        tuple(sorted(result.writes.items())),
        tuple(sorted(result.applied_order.items())),
        reads,
    ))


def same_outputs(reference: list[int], results) -> list[tuple[int | None, str]]:
    found = []
    for result, expected in zip(results, reference):
        if output_digest(result) != expected:
            found.append((result.block_id, f"block {result.block_id}: output differs from the checked round"))
    if len(results) != len(reference):
        found.append((None, "round processed a different number of blocks than the checked round"))
    return found


def full_check(wl, pre_blocks, pre_results, blocks, results, preload, replica, recovered):
    """Model, replay and acyclicity per block; final state against the model
    and, on YCSB, against conservation of the committed adds."""
    model: dict[str, int] = {}
    for block, result in zip(pre_blocks, pre_results):
        if checks.check_block(block, result, model):
            raise RuntimeError(f"preload block {block.id} failed its check")
    found = []
    for block, result in zip(blocks, results):
        found += [(block.id, problem) for problem in checks.check_block(block, result, model)]
    state = replica.store.visible_state()
    final = checks.check_state(state, model, "final state vs model")
    if wl.kind == "ycsb":
        final += checks.check_state(state, checks.conservation(preload, blocks, results), "conservation")
    if recovered is not None:
        final += checks.check_state(recovered.store.visible_state(), model, "recovered state vs model")
    return found + [(None, problem) for problem in final]


def check_recovery(replica, recovered) -> list[str]:
    """Recovery must reproduce every per-block state hash the replica
    recorded after the checkpoint, and the final state."""
    problems = []
    if recovered.last_block != replica.store.last_committed_block:
        problems.append(
            f"recovery ended at block {recovered.last_block}, "
            f"the replica at {replica.store.last_committed_block}"
        )
    for block_id, digest in recovered.state_hashes.items():
        if replica.state_hashes[block_id] != digest:
            problems.append(f"recovery: state hash of block {block_id} differs")
            break
    if recovered.store.state_hash() != replica.store.state_hash():
        problems.append("recovery: final state hash differs")
    return problems


def layer_metrics(phases, results, store, log_bytes, checkpoint_bytes) -> dict[str, float]:
    setup, measured = phases["setup"], phases["measured"]
    recover = phases["recover"]
    spans = measured["total"]
    durable = [measured, phases["archive"]]
    txns = sum(len(r.committed) + len(r.aborted) for r in results)
    recover_total = recover["total"].get("storage.recover", 0.0)
    loads = sum(recover["total"].get(n, 0.0) for n in ("storage.recover_load", "storage.checkpoint_load"))
    return {
        "workloads.generate_s": setup["total"].get("workloads.generate", 0.0),
        "core.seal_s": setup["total"].get("core.seal", 0.0),
        "core.interpret_s": spans.get("core.interpret", 0.0),
        "pipeline.receive_s": spans.get("pipeline.receive", 0.0),
        "pipeline.gc_pause_s": measured["gc_pause_s"],
        "pipeline.gc_collections": measured["gc_collections"],
        "engine.process_block_s": spans.get("engine.process_block", 0.0),
        "engine.simulate_s": spans.get("engine.simulate", 0.0),
        "engine.resolve_s": spans.get("engine.resolve", 0.0),
        "engine.apply_s": spans.get("engine.apply", 0.0),
        "engine.self_s": measured["self"].get("engine.process_block", 0.0),
        "engine.rw_pairs": sum(r.handler_calls for r in results),
        "engine.coalesced_commands": sum(len(o) for r in results for o in r.applied_order.values()),
        "engine.keys_written": sum(len(r.writes) for r in results),
        "engine.aborted_txns": sum(len(r.aborted) for r in results),
        "engine.commit_ratio": sum(len(r.committed) for r in results) / txns,
        "storage.state_hash_s": spans.get("storage.state_hash", 0.0),
        "storage.install_s": spans.get("storage.install", 0.0),
        "storage.versions_retained": versions_retained(store),
        "storage.chain_append_s": spans.get("storage.chain_append", 0.0),
        "storage.fsync_s": sum(p["total"].get("storage.fsync", 0.0) for p in durable),
        "storage.fsyncs": sum(p["calls"].get("storage.fsync", 0) for p in durable),
        "storage.checkpoint_s": sum(p["total"].get("storage.checkpoint", 0.0) for p in durable),
        "storage.checkpoints": sum(p["checkpoints"] for p in durable),
        "storage.log_bytes": log_bytes,
        "storage.checkpoint_bytes": checkpoint_bytes,
        "storage.checkpoint_load_s": recover["total"].get("storage.checkpoint_load", 0.0),
        "storage.recover_load_s": recover["total"].get("storage.recover_load", 0.0),
        "storage.recover_replay_s": recover_total - loads,
    }


LAYER_UNITS = {"pipeline.gc_collections": "count", "engine.commit_ratio": "ratio",
               "storage.log_bytes": "B", "storage.checkpoint_bytes": "B",
               "trace.overhead_pct": "%"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(rounds: list[Round], times: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; ``times`` are every measured block's seconds, sorted."""
    first = rounds[0]
    return {
        "commit_tps": (sum(r.committed for r in rounds) / sum(r.measured_s for r in rounds), "txn/s"),
        "committed_txns": (first.committed, "txn"),
        "block_ms_p50": (percentile(times, 0.50) * 1e3, "ms"),
        "block_ms_p95": (percentile(times, 0.95) * 1e3, "ms"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "recovery_s": (statistics.median(r.recovery_s for r in rounds if r.recovery_s is not None), "s"),
        "disk_bytes_per_txn": ((first.log_bytes + first.checkpoint_bytes) / first.submitted_txns, "B"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(untraced: list[Round], traced: list[Round]) -> dict[str, tuple[float, str]]:
    out = {
        name: (statistics.median(r.layers[name] for r in traced), layer_unit(name))
        for name in traced[0].layers
    }
    plain = statistics.median(r.measured_s for r in untraced)
    with_spans = statistics.median(r.measured_s for r in traced)
    out["trace.overhead_pct"] = ((with_spans / plain - 1) * 100, "%")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole rounds until ``seconds`` of measured time; return the result."""
    wl = WORKLOADS[workload]
    work = HERE / ".tmp" / f"run-{os.getpid()}"
    rounds: list[Round] = []
    try:
        while (
            len(rounds) < MIN_ROUNDS
            or sum(r.measured_s for r in rounds) < seconds
            or (trace and len(rounds) % 2)
        ):
            data_dir = work / f"round-{len(rounds)}"
            reference = rounds[0].digests if rounds else None
            recover = trace or len(rounds) < MIN_ROUNDS
            if trace and len(rounds) % 2:
                with Tracer() as tracer:
                    rounds.append(run_round(wl, seed, data_dir, tracer, reference, recover))
            else:
                rounds.append(run_round(wl, seed, data_dir, None, reference, recover))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".tmp").rmdir()
        except OSError:
            pass  # another run still uses it
    times = sorted(t for r in rounds for t in r.block_s)
    if trace:
        metrics = per_layer(rounds[0::2], rounds[1::2])
    else:
        metrics = end_to_end(rounds, times)
    problems = [p for r in rounds for p in r.problems]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "measured_s": sum(r.measured_s for r in rounds),
        "txns_attempted": sum(r.measured_txns for r in rounds),
        "txns_committed": sum(r.committed for r in rounds),
        "txns_aborted": sum(r.aborted for r in rounds),
        "problems": problems,
        "block_ms_quantiles": {
            q: percentile(times, q / 100) * 1e3 for q in (50, 90, 95, 98, 99, 99.9)
        },
        "per_round": [
            {
                "setup_s": r.setup_s,
                "measured_s": r.measured_s,
                "recovery_s": r.recovery_s,
                "attempted": r.attempted,
                "commit_tps": r.committed / r.measured_s,
            }
            for r in rounds
        ],
        "correct": not any(r.mismatches for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{result['rounds']} rounds, {result['measured_s']:.2f} s measured, "
        f"blocks attempted={result['attempted']} failed={result['failed']}, "
        f"txns attempted={result['txns_attempted']} committed={result['txns_committed']} "
        f"aborted={result['txns_aborted']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6f} {metric['unit']}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
