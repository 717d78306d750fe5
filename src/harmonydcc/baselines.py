"""Baseline validators modeling the abort behavior of other deterministic
commit protocols, for comparative metrics only.

All three simulate against the previous block's snapshot and store computed
values rather than commands, so an arithmetic update command counts as a
read of the key it modifies (the fused read happens at the snapshot value).
Without those implied reads the value-based protocols would silently commit
lost updates.
"""
from __future__ import annotations

from typing import Optional

from .core import (
    Block,
    ContractError,
    Key,
    ReadRecord,
    Tid,
    apply_command,
    execute_program,
    reads_input,
)
from .engine import BlockExecution, BlockResult, HarmonyEngine, validate

BASELINE_KINDS = ("fabric", "aria", "serial")


class _SnapshotBaseline(HarmonyEngine):
    """The engine's simulation and dependency resolution; the subclasses
    replace only the commit decision."""

    def _simulate(self, block: Block) -> BlockExecution:
        """Simulate at the previous block's snapshot, then append one implied
        read per input-consuming command on a key the program did not read,
        in first-update order. Dependency states, structure hits and handler
        calls stay those of the program reads, so they remain a property of
        the workload rather than of the validator."""
        if block.id != self.store.last_committed_block + 1:
            raise ContractError(f"block {block.id} out of order")
        snapshot = block.id - 1
        exec_ = self.simulate(block, snapshot)
        self.resolve_dependencies(exec_)
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

    def _finish(self, exec_: BlockExecution, aborted: set[Tid]) -> BlockResult:
        """Evaluate each committed command on the snapshot value in TID
        order, install the writes and report the block."""
        block = exec_.block
        store = self.store
        committed = frozenset(t.tid for t in block.txns) - aborted
        writes: dict[Key, int] = {}
        applied: dict[Key, list[Tid]] = {}
        for txn in block.txns:
            if txn.tid not in committed:
                continue
            for key, command in exec_.commands[txn.tid].items():
                writes[key] = apply_command(command, store.read(key, exec_.snapshot))
                applied.setdefault(key, []).append(txn.tid)
        store.install_block_writes(block.id, writes)
        dep = exec_.dep_states
        return BlockResult(
            block_id=block.id,
            snapshot=exec_.snapshot,
            committed=committed,
            aborted=frozenset(aborted),
            writes=writes,
            applied_order={k: tuple(v) for k, v in applied.items()},
            structure_hits=frozenset(t for t in dep if validate(dep[t])),
            reads=exec_.reads,
            commands=exec_.commands,
            handler_calls=exec_.handler_calls,
        )

    def export_state(self) -> Optional[dict]:
        return None

    def restore_state(self, state: Optional[dict]) -> None:
        if state is not None:
            raise ContractError("baseline engines carry no recoverable state")


class FabricEngine(_SnapshotBaseline):
    """Aborts on a single stale read: scanning in TID order, a transaction
    aborts iff a key it read was written by a lower-TID transaction already
    committed in the scan. Commits apply serially in TID order."""

    def process_block(self, block: Block) -> BlockResult:
        exec_ = self._simulate(block)
        aborted: set[Tid] = set()
        committed_writes: set[Key] = set()
        for txn in block.txns:
            tid = txn.tid
            if any(record.key in committed_writes for record in exec_.reads[tid]):
                aborted.add(tid)
                continue
            committed_writes.update(exec_.commands[tid])
        return self._finish(exec_, aborted)


class AriaEngine(_SnapshotBaseline):
    """Aborts the higher TID on any write/write overlap, plus transactions
    whose stale read against a surviving lower-TID writer pairs with an
    incoming read dependency. Survivors have disjoint write sets."""

    def process_block(self, block: Block) -> BlockResult:
        exec_ = self._simulate(block)
        ww_losers = self._ww_losers(exec_)
        aborted = set(ww_losers)
        for txn in block.txns:
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
        return self._finish(exec_, aborted)


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
