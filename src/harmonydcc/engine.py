"""Abort-minimizing deterministic concurrency control engine.

Each block is processed in two steps. The simulation step runs every
transaction against the same block snapshot, recording its reads and its
pre-coalesced update command per key, and indexes the block's readers and
writers of every key as it goes. The reservation table is that writer index
plus each writer's command. The commit step resolves read/write
dependencies, aborts transactions caught in the dangerous read-dependency
pattern, orders the surviving update commands per key by ascending min_out
(ties by TID), coalesces them, and installs the block's writes. Which
transactions abort is one method, `abort_set`. Every engine kind runs this
commit step: the baselines override `abort_set` and run with update
reordering off, which applies a key's survivors in TID order; the serial
one also replaces the simulation.

min_out(j) is the smallest TID of a transaction whose write T_j read the
before-image of, when that TID is below j (else j + 1); max_in(j) is the
largest TID that read the before-image of one of T_j's writes (sentinel -1
when none). T_j aborts iff min_out < j and min_out <= max_in, which holds
exactly when T_j is the middle node of a pattern T_i <-rw- T_j <-rw- T_k
with i < j and i <= k; that test is `validate`. Everything else, including
write/write conflicts, is handled by reordering, without aborts.

With inter-block parallelism a block simulates against the snapshot two
blocks back, so dependencies against the immediately preceding block exist.
The generalized abort policy stays deterministic under network asynchrony by
only ever aborting transactions of the block currently entering its commit
step: a pattern whose two newest members share that block aborts the middle
one, and a pattern reaching back into the previous block aborts the newest
one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    Block,
    BlockId,
    Command,
    ContractError,
    Key,
    ReadRecord,
    Tid,
    apply_command,
    compose,
    execute_program,
)
from .storage import SnapshotStore

NO_INCOMING = -1  # max_in sentinel; every TID is non-negative


@dataclass
class EngineOptions:
    inter_block: bool = False
    update_optim: bool = True


@dataclass
class DependencyState:
    tid: Tid
    min_out: Tid
    max_in: Tid

    @classmethod
    def initial(cls, tid: Tid) -> "DependencyState":
        return cls(tid=tid, min_out=tid + 1, max_in=NO_INCOMING)


def validate(state: DependencyState) -> bool:
    """True when the transaction must abort under the validation rule."""
    return state.min_out < state.tid and state.min_out <= state.max_in


def resolve_rw_states(
    tids,
    readers_of: dict[Key, list[Tid]],
    writers_of: dict[Key, list[Tid]],
) -> tuple[dict[Tid, DependencyState], int]:
    """Fold every reader/writer pair into min_out / max_in accumulators.

    Returns the per-transaction states and the number of handler
    invocations, which equals the number of (key, reader, writer) pairs.
    """
    dep = {t: DependencyState.initial(t) for t in tids}
    calls = 0
    for key, writers in writers_of.items():
        readers = readers_of.get(key)
        if not readers:
            continue
        for r in readers:
            state_r = dep[r]
            for w in writers:
                if w == r:
                    continue
                if w < state_r.min_out:
                    state_r.min_out = w
                state_w = dep[w]
                if r > state_w.max_in:
                    state_w.max_in = r
                calls += 1
    return dep, calls


@dataclass
class BlockExecution:
    block: Block
    snapshot: BlockId
    reads: dict[Tid, tuple[ReadRecord, ...]] = field(default_factory=dict)
    # per transaction, its pre-coalesced command per key, in first-update order
    commands: dict[Tid, dict[Key, Command]] = field(default_factory=dict)
    # per key, the TIDs that read it / wrote it, ascending and without repeats
    readers_of: dict[Key, list[Tid]] = field(default_factory=dict)
    writers_of: dict[Key, list[Tid]] = field(default_factory=dict)
    dep_states: dict[Tid, DependencyState] = field(default_factory=dict)
    handler_calls: int = 0


@dataclass
class BlockResult:
    block_id: BlockId
    snapshot: BlockId
    committed: frozenset[Tid]
    aborted: frozenset[Tid]
    writes: dict[Key, int]
    applied_order: dict[Key, tuple[Tid, ...]]
    structure_hits: frozenset[Tid]
    reads: dict[Tid, tuple[ReadRecord, ...]]
    commands: dict[Tid, dict[Key, Command]]
    handler_calls: int = 0


@dataclass
class _Carryover:
    """What the next block's commit step may consult about this block."""

    writers_of: dict[Key, list[Tid]]  # committed writers only
    reaches_smaller: frozenset[Tid]  # committed txns with an rw edge to a lower TID


class HarmonyEngine:
    """Snapshot-simulate, validate, reorder, coalesce, install."""

    def __init__(self, store: SnapshotStore, options: Optional[EngineOptions] = None):
        self.store = store
        self.options = options or EngineOptions()
        self._prev: Optional[_Carryover] = None

    # -- simulation step ----------------------------------------------------

    def simulate(self, block: Block, snapshot: BlockId) -> BlockExecution:
        """Run every transaction of the block against the same snapshot.

        Transactions run in block order, which is ascending TID order (the
        sequencer assigns TIDs in arrival order), so appending each TID to
        the readers and writers of the keys it touches, unless it is already
        the last entry, lists them ascending and without repeats.
        """
        exec_ = BlockExecution(block=block, snapshot=snapshot)
        store = self.store
        readers_of = exec_.readers_of
        writers_of = exec_.writers_of

        def read(key: Key):
            return store.read(key, snapshot)

        for txn in block.txns:
            tid = txn.tid
            raw_reads, commands = execute_program(tid, txn.steps, read)
            records = []
            for key, observed, own in raw_reads:
                records.append(ReadRecord(key, snapshot, observed, own))
                readers = readers_of.setdefault(key, [])
                if not readers or readers[-1] != tid:
                    readers.append(tid)
            exec_.reads[tid] = tuple(records)
            exec_.commands[tid] = commands
            for key in commands:
                writers_of.setdefault(key, []).append(tid)
        return exec_

    # -- dependency resolution ----------------------------------------------

    def resolve_dependencies(self, exec_: BlockExecution) -> None:
        tids = [t.tid for t in exec_.block.txns]
        exec_.dep_states, exec_.handler_calls = resolve_rw_states(
            tids, exec_.readers_of, exec_.writers_of
        )

    # -- validation ---------------------------------------------------------

    def enhanced_validate(self, exec_: BlockExecution) -> set[Tid]:
        """Generalized abort policy over intra-block rw edges plus
        dependencies against the previous in-flight block.

        Without a previous block, as always in intra-block mode, this is
        exactly the plain validation rule. With one, the rule sees a copy of
        each state, its min_out lowered by the previous block's writers of
        the keys read; dep_states, which orders updates, stays as resolved.
        """
        prev = self._prev
        aborts: set[Tid] = set()
        for txn in exec_.block.txns:
            tid = txn.tid
            state = exec_.dep_states[tid]
            behind_committed_writer = False
            if prev is not None:
                earliest_out = state.min_out
                for record in exec_.reads[tid]:
                    for w in prev.writers_of.get(record.key, ()):
                        if w < earliest_out:
                            earliest_out = w
                        if w in prev.reaches_smaller:
                            behind_committed_writer = True
                state = DependencyState(tid, earliest_out, state.max_in)
            # middle of an in-block pattern, or newest of one reaching back
            if validate(state) or behind_committed_writer:
                aborts.add(tid)
        return aborts

    def abort_set(self, exec_: BlockExecution, hits: set[Tid]) -> set[Tid]:
        """The transactions the commit step aborts, given the validation
        hits: the hits themselves, plus every write/write loser when update
        reordering is off."""
        if self.options.update_optim:
            return hits
        return hits | self._ww_losers(exec_)

    def _ww_losers(self, exec_: BlockExecution) -> set[Tid]:
        """Write/write fallback used when update reordering is disabled:
        every writer of a key except the lowest TID aborts."""
        losers: set[Tid] = set()
        for writers in exec_.writers_of.values():
            losers.update(writers[1:])
        return losers

    # -- commit step --------------------------------------------------------

    def apply_write_sets(
        self, exec_: BlockExecution, committed: frozenset[Tid]
    ) -> tuple[dict[Key, int], dict[Key, tuple[Tid, ...]]]:
        """Per key, order the committed commands by ascending (min_out, tid)
        when update reordering is on, else keep them in TID order; coalesce
        them into one command and evaluate it once on the state left by the
        previous block. Returns the writes and the applied order of every
        written key."""
        store = self.store
        dep = exec_.dep_states
        commands = exec_.commands
        base_block = exec_.block.id - 1
        reorder = self.options.update_optim
        writes: dict[Key, int] = {}
        applied_order: dict[Key, tuple[Tid, ...]] = {}
        for key, writers in exec_.writers_of.items():
            survivors = [t for t in writers if t in committed]
            if not survivors:
                continue
            if reorder:
                survivors.sort(key=lambda t: (dep[t].min_out, t))
            composed = compose([commands[t][key] for t in survivors])
            writes[key] = apply_command(composed, store.read(key, base_block))
            applied_order[key] = tuple(survivors)
        return writes, applied_order

    # -- orchestration ------------------------------------------------------

    def process_block(self, block: Block) -> BlockResult:
        if block.id != self.store.last_committed_block + 1:
            raise ContractError(
                f"block {block.id} entered its commit step out of order "
                f"(store is at {self.store.last_committed_block})"
            )
        snapshot = block.id - (2 if self.options.inter_block else 1)
        exec_ = self.simulate(block, snapshot)
        self.resolve_dependencies(exec_)
        hits = self.enhanced_validate(exec_)
        aborted = self.abort_set(exec_, hits)
        committed = frozenset(t.tid for t in block.txns) - aborted
        writes, applied_order = self.apply_write_sets(exec_, committed)
        self.store.install_block_writes(block.id, writes)
        if self.options.inter_block:
            self._prev = self._carryover(exec_, committed, applied_order)
        return BlockResult(
            block_id=block.id,
            snapshot=snapshot,
            committed=committed,
            aborted=frozenset(aborted),
            writes=writes,
            applied_order=applied_order,
            structure_hits=frozenset(hits),
            reads=exec_.reads,
            commands=exec_.commands,
            handler_calls=exec_.handler_calls,
        )

    def _carryover(
        self,
        exec_: BlockExecution,
        committed: frozenset[Tid],
        applied_order: dict[Key, tuple[Tid, ...]],
    ) -> _Carryover:
        prev = self._prev
        reaches: set[Tid] = set()
        for tid in committed:
            if exec_.dep_states[tid].min_out < tid:
                reaches.add(tid)
            elif prev is not None and any(
                record.key in prev.writers_of for record in exec_.reads[tid]
            ):
                reaches.add(tid)
        return _Carryover(
            writers_of={key: sorted(tids) for key, tids in applied_order.items()},
            reaches_smaller=frozenset(reaches),
        )

    # -- recovery support ---------------------------------------------------

    def export_state(self) -> Optional[dict]:
        if self._prev is None:
            return None
        return {
            "writers_of": {k: list(v) for k, v in self._prev.writers_of.items()},
            "reaches_smaller": sorted(self._prev.reaches_smaller),
        }

    def restore_state(self, state: Optional[dict]) -> None:
        if state is None:
            self._prev = None
            return
        self._prev = _Carryover(
            writers_of={k: list(v) for k, v in state["writers_of"].items()},
            reaches_smaller=frozenset(state["reaches_smaller"]),
        )
