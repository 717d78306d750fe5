"""Order-execute pipeline: sequencer, simulated asynchronous broadcast,
replica state machines, and the multi-replica determinism harness.

Consensus is replaced by a single deterministic sequencer; the network is a
seeded discrete-event simulation rather than sockets, because reproducible
asynchrony is the point. The event clock also models per-block execution
occupancy: a block's simulation stage costs SIM_STEP_COST per step of its
longest program, and its commit stage COMMIT_BASE_COST plus
COMMIT_WRITE_COST per written key. Pipeline overlap shows up as a shorter
modelled makespan, while the results themselves stay a pure function of the
ordered block stream. The makespan is a model, not a measurement: the seed
moves only the delivery delays, and the stage costs are constants.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .baselines import AriaEngine, FabricEngine, SerialEngine
from .core import (
    GENESIS_PREV_HASH,
    Block,
    ContractError,
    Transaction,
    seal_block,
)
from .engine import BlockResult, HarmonyEngine
from .storage import CHAIN_FILE, ChainError, ChainLog, CheckpointManager, SnapshotStore
from .workloads import Program

BASELINES = {"fabric": FabricEngine, "aria": AriaEngine, "serial": SerialEngine}
ENGINE_KINDS = ("harmony", *BASELINES)

# Event-clock seconds, fitted to HarmonyEngine's plain-timer stage costs (CHANGES.md)
SIM_STEP_COST = 1.8e-5
COMMIT_BASE_COST = 1.3e-4
COMMIT_WRITE_COST = 4.6e-6


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


def delivery_times(seed: int, delay_max: float, replica_id: int, n_blocks: int) -> list[float]:
    """Per-replica uniform(0, delay_max) delivery delays over a FIFO channel:
    delays never reorder blocks for a replica, they only bunch them up."""
    rng = random.Random(f"{seed}:net:{replica_id}")
    times: list[float] = []
    latest = 0.0
    for _ in range(n_blocks):
        latest = max(latest, rng.uniform(0.0, delay_max))
        times.append(latest)
    return times


@dataclass
class RunConfig:
    """A run's settings. inter_block and update_optim switch harmony's
    modes; every baseline runs with both at their defaults."""

    replicas: int = 4
    block_size: int = 25
    delay_max: float = 0.0
    seed: int = 0
    engine: str = "harmony"
    inter_block: bool = False
    update_optim: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ContractError("replica count must be positive")
        if self.block_size < 1:
            raise ContractError("block size must be positive")
        if self.engine not in ENGINE_KINDS:
            raise ContractError(f"unknown engine {self.engine!r}")
        if self.engine != "harmony" and (self.inter_block or not self.update_optim):
            raise ContractError(
                f"inter_block / update_optim switches only apply to the harmony "
                f"engine, not {self.engine!r}"
            )


def build_engine(kind: str, store: SnapshotStore, config: RunConfig):
    if kind != config.engine:
        raise ContractError(f"cannot build engine {kind!r} from a {config.engine!r} config")
    if kind == "harmony":
        return HarmonyEngine(store, config.inter_block, config.update_optim)
    return BASELINES[kind](store)


class Replica:
    """Processes received blocks strictly in id order, logging each block
    before executing it; halts on a hash-chain violation. It starts from
    block 0, so its ChainLog refuses a data directory whose chain log holds
    blocks."""

    def __init__(
        self,
        replica_id: int,
        config: RunConfig,
        data_dir: Optional[Path] = None,
    ):
        self.id = replica_id
        self.store = SnapshotStore()
        self.chain = ChainLog(data_dir / CHAIN_FILE if data_dir else None)
        self.checkpoints = CheckpointManager(data_dir) if data_dir else None
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


def run_replicas(blocks: Sequence[Block], config: RunConfig) -> RunOutcome:
    """Deliver every block to every replica after its sampled delay and run
    each replica's engine; returns the per-replica per-block state hashes.

    Replicas share nothing and delivery is FIFO, so each replica processes
    blocks in id order no matter how the delays fall, and the replicas run
    one after another: the delays move only the event clock.
    """
    replicas = []
    makespans = []
    for rid in range(config.replicas):
        replica = Replica(rid, config)
        replicas.append(replica)
        commit_end: dict[int, float] = {}
        times = delivery_times(config.seed, config.delay_max, rid, len(blocks))
        for at, block in zip(times, blocks):
            result = replica.receive(block)
            if result is None:
                continue
            # simulation waits for the commit of the block it reads; block i has id i
            start = max(at, commit_end.get(result.snapshot, 0.0))
            longest = max((len(txn.steps) for txn in block.txns), default=0)
            commit_ready = max(start + SIM_STEP_COST * longest, commit_end.get(block.id - 1, 0.0))
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
