"""Order-execute pipeline: sequencer, simulated asynchronous broadcast,
replica state machines, and the multi-replica determinism harness.

Consensus is replaced by a single deterministic sequencer; the network is a
seeded discrete-event simulation rather than sockets, because reproducible
asynchrony is the point. The event clock also models per-block execution
occupancy (simulation and commit stages with a seeded straggler factor), so
pipeline overlap shows up as a shorter simulated makespan while the results
themselves stay a pure function of the ordered block stream.
"""
from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .baselines import AriaEngine, FabricEngine, SerialEngine
from .core import (
    GENESIS_PREV_HASH,
    Block,
    ContractError,
    ReadStep,
    Transaction,
    UpdateStep,
    seal_block,
)
from .engine import BlockResult, EngineOptions, HarmonyEngine
from .storage import CHAIN_FILE, ChainError, ChainLog, CheckpointManager, SnapshotStore
from .workloads import Program

ENGINE_KINDS = ("harmony", "fabric", "aria", "serial")

# Execution-occupancy model (event-clock seconds).
SIM_STEP_COST = 2e-4
COMMIT_BASE_COST = 5e-4
COMMIT_WRITE_COST = 1e-4
STRAGGLER_PROB = 0.08
STRAGGLER_FACTOR = 8.0


def make_blocks(programs: Sequence[Program], block_size: int) -> list[Block]:
    """Assign TIDs in arrival order and seal blocks of block_size
    transactions, each linked to the one before; the final block may be
    short."""
    if block_size <= 0:
        raise ContractError("block size must be positive")
    blocks: list[Block] = []
    prev_hash = GENESIS_PREV_HASH
    for block_id, first in enumerate(range(0, len(programs), block_size)):
        txns = [
            Transaction(tid=tid, block=block_id, steps=tuple(program))
            for tid, program in enumerate(programs[first : first + block_size], first)
        ]
        blocks.append(seal_block(block_id, txns, prev_hash))
        prev_hash = blocks[-1].hash
    return blocks


class SimulatedNetwork:
    """Per-replica uniform(0, delay_max) delivery delays over a FIFO channel:
    delays never reorder blocks for a replica, they only bunch them up."""

    def __init__(self, seed: int, delay_max: float = 0.0):
        self.seed = seed
        self.delay_max = delay_max

    def delivery_times(self, replica_id: int, n_blocks: int) -> list[float]:
        rng = random.Random(f"{self.seed}:net:{replica_id}")
        times: list[float] = []
        latest = 0.0
        for _ in range(n_blocks):
            latest = max(latest, rng.uniform(0.0, self.delay_max))
            times.append(latest)
        return times


@dataclass
class RunConfig:
    replicas: int = 4
    block_size: int = 25
    delay_max: float = 0.0
    seed: int = 0
    engine: str = "harmony"
    inter_block: bool = False
    update_optim: bool = True
    checkpoint_p: int = 10

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ContractError("replica count must be positive")
        if self.checkpoint_p < 1:
            raise ContractError("checkpoint period must be positive")

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ContractError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ContractError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            # bool is a subclass of int, so compare exact types
            value, want = data[f.name], type(f.default)
            if type(value) is not want and not (want is float and type(value) is int):
                raise ContractError(
                    f"config key {f.name!r} must be {want.__name__}, "
                    f"not {type(value).__name__}"
                )
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def build_engine(kind: str, store: SnapshotStore, config: RunConfig):
    if kind == "harmony":
        return HarmonyEngine(
            store,
            EngineOptions(
                inter_block=config.inter_block,
                update_optim=config.update_optim,
            ),
        )
    if config.inter_block or not config.update_optim:
        raise ContractError(
            f"inter_block / update_optim switches only apply to the harmony "
            f"engine, not {kind!r}"
        )
    if kind == "fabric":
        return FabricEngine(store)
    if kind == "aria":
        return AriaEngine(store)
    if kind == "serial":
        return SerialEngine(store)
    raise ContractError(f"unknown engine {kind!r}")


class Replica:
    """Processes received blocks strictly in id order, logging each block
    before executing it; halts on a hash-chain violation."""

    def __init__(
        self,
        replica_id: int,
        config: RunConfig,
        data_dir: Optional[Path] = None,
    ):
        self.id = replica_id
        self.store = SnapshotStore()
        chain_path = data_dir / CHAIN_FILE if data_dir else None
        self.chain = ChainLog(chain_path)
        self.checkpoints = (
            CheckpointManager(data_dir, config.checkpoint_p) if data_dir else None
        )
        self.engine = build_engine(config.engine, self.store, config)
        self.halted = False
        self.state_hashes: list[str] = []
        self.results: list[BlockResult] = []

    def receive(self, block: Block) -> Optional[BlockResult]:
        if self.halted:
            return None
        try:
            self.chain.append_block(block)
        except ChainError:
            self.halted = True
            return None
        result = self.engine.process_block(block)
        self.results.append(result)
        self.state_hashes.append(self.store.state_hash())
        if self.checkpoints is not None:
            self.checkpoints.maybe_checkpoint(
                self.store, result.writes, self.engine.export_state()
            )
        return result

    def close(self) -> None:
        self.chain.close()


@dataclass
class RunOutcome:
    hash_matrix: list[list[str]]  # rows: replicas, columns: blocks
    results: list[list[BlockResult]]
    makespans: list[float]
    halted: list[bool]

    def rows_identical(self) -> bool:
        return all(row == self.hash_matrix[0] for row in self.hash_matrix[1:])


def _block_costs(blocks: Sequence[Block], seed: int) -> list[float]:
    """Simulation duration per block; the straggler factor models the
    occasional slow transaction that motivates pipelining."""
    rng = random.Random(f"{seed}:costs")
    costs = []
    for block in blocks:
        slowest = 0.0
        for txn in block.txns:
            factor = STRAGGLER_FACTOR if rng.random() < STRAGGLER_PROB else 1.0
            slowest = max(slowest, len(txn.steps) * factor * SIM_STEP_COST)
        costs.append(slowest)
    return costs


def tamper_block(block: Block) -> Block:
    """A byte-level corruption model: mutate one step of the first
    transaction while keeping the recorded hashes."""
    first = block.txns[0]
    step = first.steps[0]
    if isinstance(step, UpdateStep):
        mutated = step._replace(operand=step.operand + 1)
    elif isinstance(step, ReadStep):
        mutated = ReadStep(step.key + "x")
    else:
        mutated = step._replace(operand=step.operand + 1)
    txns = (
        Transaction(first.tid, first.block, (mutated,) + first.steps[1:]),
    ) + block.txns[1:]
    return Block(id=block.id, txns=txns, prev_hash=block.prev_hash, hash=block.hash)


def run_replicas(blocks: Sequence[Block], config: RunConfig) -> RunOutcome:
    """Deliver every block to every replica after its sampled delay and run
    each replica's engine; returns the per-replica per-block state hashes.

    Replicas share nothing and delivery is FIFO, so each replica processes
    blocks in id order no matter how the delays fall, and the replicas run
    one after another: the delays move only the event clock.
    """
    net = SimulatedNetwork(config.seed, config.delay_max)
    costs = _block_costs(blocks, config.seed)
    replicas = []
    makespans = []
    for rid in range(config.replicas):
        replica = Replica(rid, config)
        replicas.append(replica)
        commit_end: dict[int, float] = {}
        for at, block in zip(net.delivery_times(rid, len(blocks)), blocks):
            result = replica.receive(block)
            if result is None:
                continue
            # simulation waits for the commit of the block it reads; block i has id i
            start = max(at, commit_end.get(result.snapshot, 0.0))
            commit_ready = max(start + costs[block.id], commit_end.get(block.id - 1, 0.0))
            commit_cost = COMMIT_BASE_COST + COMMIT_WRITE_COST * len(result.writes)
            commit_end[block.id] = commit_ready + commit_cost
        makespans.append(max(commit_end.values(), default=0.0))
        replica.close()
    return RunOutcome(
        hash_matrix=[r.state_hashes for r in replicas],
        results=[r.results for r in replicas],
        makespans=makespans,
        halted=[r.halted for r in replicas],
    )
