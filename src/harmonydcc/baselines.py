"""Baseline validators modeling the abort behavior of other deterministic
commit protocols, for comparative metrics only.

Fabric and Aria are the engine with update reordering off and a different
abort rule: they simulate at the previous block's snapshot, and the engine's
commit step applies each key's committed commands in TID order, installs
them and reports the block. Both store computed values rather than commands,
so an arithmetic update command counts as a read of the key it modifies (the
fused read happens at the snapshot value). Without those implied reads the
value-based protocols would silently commit lost updates. The serial
baseline executes against live state and has its own commit step.
"""
from __future__ import annotations

from typing import Optional

from .core import (
    Block,
    BlockId,
    ContractError,
    Key,
    ReadRecord,
    Tid,
    apply_command,
    execute_program,
    reads_input,
)
from .engine import BlockExecution, BlockResult, EngineOptions, HarmonyEngine
from .storage import SnapshotStore

BASELINE_KINDS = ("fabric", "aria", "serial")


class _SnapshotBaseline(HarmonyEngine):
    """The engine without update reordering; the subclasses replace only
    the abort rule."""

    def __init__(self, store: SnapshotStore):
        super().__init__(store, EngineOptions(update_optim=False))

    def simulate(self, block: Block, snapshot: BlockId) -> BlockExecution:
        """The engine's simulation, then one implied read per
        input-consuming command on a key the program did not read, in
        first-update order. The read index, and so dependency states,
        structure hits and handler calls, stays that of the program reads,
        so they remain a property of the workload rather than of the
        validator."""
        exec_ = super().simulate(block, snapshot)
        store = self.store
        for tid, commands in exec_.commands.items():
            read_keys = {record.key for record in exec_.reads[tid]}
            implied = tuple(
                ReadRecord(key, snapshot, store.read(key, snapshot), False)
                for key, command in commands.items()
                if reads_input(command) and key not in read_keys
            )
            if implied:
                exec_.reads[tid] += implied
        return exec_

    def restore_state(self, state: Optional[dict]) -> None:
        if state is not None:
            raise ContractError("baseline engines carry no recoverable state")


class FabricEngine(_SnapshotBaseline):
    """Aborts on a single stale read: scanning in TID order, a transaction
    aborts iff a key it read was written by a lower-TID transaction already
    committed in the scan. Commits apply serially in TID order."""

    def abort_set(self, exec_: BlockExecution, hits: set[Tid]) -> set[Tid]:
        aborted: set[Tid] = set()
        committed_writes: set[Key] = set()
        for txn in exec_.block.txns:
            tid = txn.tid
            if any(record.key in committed_writes for record in exec_.reads[tid]):
                aborted.add(tid)
                continue
            committed_writes.update(exec_.commands[tid])
        return aborted


class AriaEngine(_SnapshotBaseline):
    """Aborts the higher TID on any write/write overlap, plus transactions
    whose stale read against a surviving lower-TID writer pairs with an
    incoming read dependency. Survivors have disjoint write sets."""

    def abort_set(self, exec_: BlockExecution, hits: set[Tid]) -> set[Tid]:
        ww_losers = self._ww_losers(exec_)
        aborted = set(ww_losers)
        for txn in exec_.block.txns:
            tid = txn.tid
            if tid in aborted:
                continue
            stale = any(
                w < tid and w not in ww_losers
                for record in exec_.reads[tid]
                for w in exec_.writers_of.get(record.key, ())
            )
            if not stale:
                continue
            incoming = any(
                r != tid
                for key in exec_.commands[tid]
                for r in exec_.readers_of.get(key, ())
            )
            if incoming:
                aborted.add(tid)
        return aborted


class SerialEngine(_SnapshotBaseline):
    """Executes transactions one by one in TID order against the live state.
    Never aborts; defines the reference final state for any block."""

    def process_block(self, block: Block) -> BlockResult:
        if block.id != self.store.last_committed_block + 1:
            raise ContractError(f"block {block.id} out of order")
        snapshot = block.id - 1
        store = self.store
        overlay: dict[Key, int] = {}
        reads = {}
        commands = {}
        applied: dict[Key, list[Tid]] = {}
        for txn in block.txns:

            def live_read(key: Key):
                if key in overlay:
                    return overlay[key]
                return store.read(key, snapshot)

            raw, cmds, updated = execute_program(txn.tid, txn.steps, live_read)
            reads[txn.tid] = tuple(ReadRecord(k, snapshot, v, own) for k, v, own in raw)
            commands[txn.tid] = cmds
            for key in updated:
                overlay[key] = apply_command(cmds[key], live_read(key))
                applied.setdefault(key, []).append(txn.tid)
        store.install_block_writes(block.id, overlay)
        return BlockResult(
            block_id=block.id,
            snapshot=snapshot,
            committed=frozenset(t.tid for t in block.txns),
            aborted=frozenset(),
            writes=overlay,
            applied_order={k: tuple(v) for k, v in applied.items()},
            structure_hits=frozenset(),
            reads=reads,
            commands=commands,
        )
