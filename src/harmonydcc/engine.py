"""Abort-minimizing deterministic concurrency control engine.

Each block is processed in three steps. The simulation step runs every
transaction against the same block snapshot, recording its reads and its
pre-coalesced update command per key, and indexes the block's readers and
writers of every key as it goes; a transaction's reads stay one flat tuple
of (key, observed, own) triples, and a result builds ReadRecords only on
access. The abort rule, `abort_set`, is the one step each engine kind
defines for itself: harmony's resolves read/write dependencies and aborts
transactions caught in the dangerous read-dependency pattern. The commit
step, shared by every kind, orders the
surviving update commands per key, by ascending min_out (ties by TID) with
update reordering on and by TID with it off, coalesces them, and installs
the block's writes. The baselines override only `abort_set` and run with
update reordering off; the serial one also replaces the simulation.

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

from collections.abc import Mapping
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


def validate(tid: Tid, min_out: Tid, max_in: Tid) -> bool:
    """True when the transaction must abort under the validation rule."""
    return min_out < tid and min_out <= max_in


def resolve_rw_states(
    tids,
    readers_of: dict[Key, list[Tid]],
    writers_of: dict[Key, list[Tid]],
) -> tuple[dict[Tid, Tid], dict[Tid, Tid], int]:
    """Fold every reader/writer pair into min_out / max_in accumulators.

    Returns min_out and max_in per transaction, starting from tid + 1 and
    NO_INCOMING, and the number of handler invocations, which equals the
    number of (key, reader, writer) pairs.
    """
    min_out = {t: t + 1 for t in tids}
    max_in = dict.fromkeys(tids, NO_INCOMING)
    calls = 0
    for key, writers in writers_of.items():
        readers = readers_of.get(key)
        if not readers:
            continue
        for r in readers:
            out = min_out[r]
            for w in writers:
                if w == r:
                    continue
                if w < out:
                    out = w
                if r > max_in[w]:
                    max_in[w] = r
                calls += 1
            min_out[r] = out
    return min_out, max_in, calls


@dataclass
class BlockExecution:
    block: Block
    # per transaction, one flat (key, observed, own, key, observed, own, ...)
    # tuple of its reads, in program order
    reads: dict[Tid, tuple] = field(default_factory=dict)
    # per transaction, its pre-coalesced command per key, in first-update
    # order: the program's own UpdateStep, or a (parts,) chain of them
    commands: dict[Tid, dict[Key, Command]] = field(default_factory=dict)
    # per key, the TIDs that read it / wrote it, ascending and without repeats
    readers_of: dict[Key, list[Tid]] = field(default_factory=dict)
    writers_of: dict[Key, list[Tid]] = field(default_factory=dict)
    # set by harmony's abort rule; the baselines leave them empty
    min_out: dict[Tid, Tid] = field(default_factory=dict)
    max_in: dict[Tid, Tid] = field(default_factory=dict)
    handler_calls: int = 0
    structure_hits: frozenset[Tid] = frozenset()


@dataclass(slots=True, eq=False)  # eq is Mapping's, which compares records
class BlockReads(Mapping):
    """A block's reads per TID as ReadRecord tuples, read-only, built afresh
    on each access from BlockExecution.reads' flat tuples, one record per
    three items; nothing per read is kept. The snapshot the block read is
    BlockResult.snapshot, not a record field."""

    raw: dict[Tid, tuple]

    def __getitem__(self, tid: Tid) -> tuple[ReadRecord, ...]:
        raw = self.raw[tid]
        return tuple(map(ReadRecord, raw[::3], raw[1::3], raw[2::3]))

    def __iter__(self):
        return iter(self.raw)

    def __len__(self) -> int:
        return len(self.raw)

    def __repr__(self) -> str:
        return f"BlockReads({dict(self)!r})"


@dataclass
class BlockResult:
    """A processed block; reads, a BlockReads, builds records on each access."""

    block_id: BlockId
    snapshot: BlockId
    committed: frozenset[Tid]
    aborted: frozenset[Tid]
    writes: dict[Key, int]
    applied_order: dict[Key, tuple[Tid, ...]]
    structure_hits: frozenset[Tid]
    reads: Mapping[Tid, tuple[ReadRecord, ...]]
    commands: dict[Tid, dict[Key, Command]]
    handler_calls: int = 0


@dataclass
class _Carryover:
    """What the next block's commit step may consult about this block."""

    writers_of: dict[Key, list[Tid]]  # committed writers only
    reaches_smaller: frozenset[Tid]  # committed txns with an rw edge to a lower TID


class HarmonyEngine:
    """Snapshot-simulate, validate, reorder, coalesce, install."""

    def __init__(
        self, store: SnapshotStore, inter_block: bool = False, update_optim: bool = True
    ):
        self.store = store
        self.inter_block = inter_block
        self.update_optim = update_optim
        self._prev: Optional[_Carryover] = None

    # -- simulation step ----------------------------------------------------

    def simulate(self, block: Block, snapshot: BlockId) -> BlockExecution:
        """Run every transaction of the block against the same snapshot.

        Transactions run in block order, which is ascending TID order (the
        sequencer assigns TIDs in arrival order), so appending each TID to
        the readers and writers of the keys it touches, unless it is already
        the last entry, lists them ascending and without repeats.
        """
        exec_ = BlockExecution(block)
        read = self.store.reader(snapshot)
        reads, block_commands = exec_.reads, exec_.commands
        readers_of, writers_of = exec_.readers_of, exec_.writers_of
        for txn in block.txns:
            tid = txn.tid
            raw_reads, commands = execute_program(tid, txn.steps, read)
            for key in raw_reads[::3]:
                readers = readers_of.get(key)
                if readers is None:
                    readers_of[key] = [tid]
                elif readers[-1] != tid:
                    readers.append(tid)
            reads[tid] = tuple(raw_reads)
            block_commands[tid] = commands
            for key in commands:
                writers = writers_of.get(key)
                if writers is None:
                    writers_of[key] = [tid]
                else:
                    writers.append(tid)
        return exec_

    # -- abort rule ---------------------------------------------------------

    def resolve_dependencies(self, exec_: BlockExecution) -> None:
        tids = [t.tid for t in exec_.block.txns]
        exec_.min_out, exec_.max_in, exec_.handler_calls = resolve_rw_states(
            tids, exec_.readers_of, exec_.writers_of
        )

    def abort_set(self, exec_: BlockExecution) -> set[Tid]:
        """Resolve the block's dependencies, then abort the structure hits
        of the generalized policy over intra-block rw edges plus dependencies
        against the previous in-flight block, and with update reordering off
        every write/write loser too.

        Without a previous block, as always in intra-block mode, the policy
        is exactly the plain validation rule. With one, the rule tests a
        local copy of each min_out, lowered by the previous block's writers
        of the keys read; exec_.min_out, which orders updates, stays as
        resolved."""
        self.resolve_dependencies(exec_)
        prev = self._prev
        max_in = exec_.max_in
        hits: set[Tid] = set()
        for tid, out in exec_.min_out.items():
            behind_committed_writer = False
            if prev is not None:
                for key in exec_.reads[tid][::3]:
                    for w in prev.writers_of.get(key, ()):
                        if w < out:
                            out = w
                        if w in prev.reaches_smaller:
                            behind_committed_writer = True
            # middle of an in-block pattern, or newest of one reaching back
            if validate(tid, out, max_in[tid]) or behind_committed_writer:
                hits.add(tid)
        exec_.structure_hits = frozenset(hits)
        if self.update_optim:
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
        written key.

        Writers are listed in ascending TID order and the sort is stable, so
        sorting by min_out alone gives the (min_out, tid) order. A key whose
        one writer committed takes that writer's command as it is."""
        read = self.store.reader(exec_.block.id - 1)
        commands = exec_.commands
        by_min_out = exec_.min_out.__getitem__
        reorder = self.update_optim
        writes: dict[Key, int] = {}
        applied_order: dict[Key, tuple[Tid, ...]] = {}
        for key, writers in exec_.writers_of.items():
            if len(writers) == 1:
                (tid,) = writers
                if tid in committed:
                    writes[key] = apply_command(commands[tid][key], read(key))
                    applied_order[key] = (tid,)
                continue
            survivors = [t for t in writers if t in committed]
            if not survivors:
                continue
            if reorder:
                survivors.sort(key=by_min_out)
            composed = compose([commands[t][key] for t in survivors])
            writes[key] = apply_command(composed, read(key))
            applied_order[key] = tuple(survivors)
        return writes, applied_order

    # -- orchestration ------------------------------------------------------

    def process_block(self, block: Block) -> BlockResult:
        if block.id != self.store.last_committed_block + 1:
            raise ContractError(
                f"block {block.id} entered its commit step out of order "
                f"(store is at {self.store.last_committed_block})"
            )
        snapshot = block.id - (2 if self.inter_block else 1)
        exec_ = self.simulate(block, snapshot)
        aborted = self.abort_set(exec_)
        committed = frozenset(t.tid for t in block.txns) - aborted
        writes, applied_order = self.apply_write_sets(exec_, committed)
        self.store.install_block_writes(block.id, writes)
        if self.inter_block:
            self._prev = self._carryover(exec_, committed, applied_order)
        return BlockResult(
            block_id=block.id,
            snapshot=snapshot,
            committed=committed,
            aborted=frozenset(aborted),
            writes=writes,
            applied_order=applied_order,
            structure_hits=exec_.structure_hits,
            reads=BlockReads(exec_.reads),
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
            if exec_.min_out[tid] < tid:
                reaches.add(tid)
            elif prev is not None and any(
                key in prev.writers_of for key in exec_.reads[tid][::3]
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
