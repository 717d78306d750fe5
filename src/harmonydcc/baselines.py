"""Baseline validators modeling the abort behavior of other deterministic
commit protocols, for comparative metrics only.

Fabric and Aria are the engine with update reordering off and a different
abort rule: they simulate at the previous block's snapshot, and the engine's
commit step applies each key's committed commands in TID order, installs
them and reports the block. Both store computed values rather than commands,
so an arithmetic update command counts as a read of the key it modifies (the
fused read happens at the snapshot value). Without those implied reads the
value-based protocols would silently commit lost updates. The serial
baseline runs the block's transactions serially against live state and
aborts nothing; the same commit step installs and reports its writes. No
baseline runs harmony's dependency analysis, so none reports structure hits
or handler calls.
"""
from __future__ import annotations

from typing import Optional

from .core import (
    Block,
    BlockId,
    ContractError,
    Key,
    Tid,
    reads_input,
    run_serially,
)
from .engine import BlockExecution, HarmonyEngine
from .storage import SnapshotStore


class _SnapshotBaseline(HarmonyEngine):
    """The engine without update reordering; Fabric and Aria replace only
    the abort rule."""

    def __init__(self, store: SnapshotStore):
        super().__init__(store, update_optim=False)

    def simulate(self, block: Block, snapshot: BlockId) -> BlockExecution:
        """The engine's simulation, then one implied read per
        input-consuming command on a key the program did not read, in
        first-update order. The reader index, which Aria's incoming-read
        test consults, stays that of the program reads."""
        exec_ = super().simulate(block, snapshot)
        read = self.store.reader(snapshot)
        for tid, commands in exec_.commands.items():
            read_keys = {key for key, _, _ in exec_.reads[tid]}
            implied = tuple(
                (key, read(key), False)
                for key, command in commands.items()
                if reads_input(command) and key not in read_keys
            )
            exec_.reads[tid] += implied
        return exec_

    def restore_state(self, state: Optional[dict]) -> None:
        if state is not None:
            raise ContractError("baseline engines carry no recoverable state")


class FabricEngine(_SnapshotBaseline):
    """Aborts on a single stale read: scanning in TID order, a transaction
    aborts iff a key it read was written by a lower-TID transaction already
    committed in the scan. Commits apply serially in TID order."""

    def abort_set(self, exec_: BlockExecution) -> set[Tid]:
        aborted: set[Tid] = set()
        committed_writes: set[Key] = set()
        for txn in exec_.block.txns:
            tid = txn.tid
            if any(key in committed_writes for key, _, _ in exec_.reads[tid]):
                aborted.add(tid)
                continue
            committed_writes.update(exec_.commands[tid])
        return aborted


class AriaEngine(_SnapshotBaseline):
    """Aria's abort rule with deterministic reordering (Lu et al., VLDB
    2020): aborts the higher TID on any write/write overlap (WAW), plus
    transactions whose stale read against a surviving lower-TID writer
    (RAW) pairs with an incoming read dependency (WAR). Survivors have
    disjoint write sets.

    Aria counts WAR only against an earlier reader of a key T writes
    (r < tid); this rule counts any other program reader (r != tid), so it
    can abort a transaction that Aria commits."""

    def abort_set(self, exec_: BlockExecution) -> set[Tid]:
        ww_losers = self._ww_losers(exec_)
        aborted = set(ww_losers)
        for txn in exec_.block.txns:
            tid = txn.tid
            if tid in aborted:
                continue
            stale = any(
                w < tid and w not in ww_losers
                for key, _, _ in exec_.reads[tid]
                for w in exec_.writers_of.get(key, ())
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
    Never aborts; defines the reference final state for any block. It
    indexes only writers: the commit step's TID-order composition per key
    gives the live value."""

    def simulate(self, block: Block, snapshot: BlockId) -> BlockExecution:
        exec_ = BlockExecution(block)
        executed, _ = run_serially(block.txns, self.store.reader(snapshot))
        for tid, (reads, commands) in executed.items():
            exec_.reads[tid] = tuple(reads)
            exec_.commands[tid] = commands
            for key in commands:
                exec_.writers_of.setdefault(key, []).append(tid)
        return exec_

    def abort_set(self, exec_: BlockExecution) -> set[Tid]:
        return set()
