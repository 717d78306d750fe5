"""Multi-versioned block-snapshot store, hash chain, logical log, recovery.

Recovery relies purely on determinism: the log keeps only the ordered input
blocks (logical logging), and replaying them from the newest complete
checkpoint reproduces every per-block state hash of the original run.
"""
from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .core import (
    GENESIS_PREV_HASH,
    Block,
    BlockId,
    ContractError,
    Key,
    Transaction,
    Value,
    block_payload,
    canonical_json,
    compute_block_hash,
    encode_txns,
)

CHAIN_FILE = "chain.log"
CHECKPOINT_MARKER = "block_checkpoint_log.json"
CHECKPOINTS_KEPT = 2
_DIGEST_BYTES = 256  # state digest elements and sums are 2048-bit
_DIGEST_MASK = (1 << (8 * _DIGEST_BYTES)) - 1


class ChainError(RuntimeError):
    """Hash-link mismatch, out-of-order append, or a corrupt log."""


class RecoveryError(RuntimeError):
    """The persisted log cannot reproduce the pre-crash state."""


class SnapshotStore:
    """Key/value store versioned by block id.

    A read at snapshot b returns the value of the largest version <= b.
    Installs are serialized by block id, and last_committed_block only
    advances after every version of the block is in place. Reads, visible
    states and state hashes are answered for blocks from first_block on: a
    fresh store's start_block, or the checkpoint's base block after
    from_checkpoint. A store that starts at genesis (-1) holds the empty
    state for every earlier id as well, since no block precedes genesis.
    """

    def __init__(self, start_block: BlockId = -1):
        self._versions: dict[Key, list[tuple[BlockId, int]]] = {}
        self._latest: dict[Key, int] = {}
        self._elements: dict[Key, int] = {}  # digest element of each visible pair
        self._sums: dict[BlockId, int] = {start_block: 0}  # digest sum per block
        self.first_block: BlockId = start_block
        self.last_committed_block: BlockId = start_block

    def _materialized(self, block: BlockId) -> BlockId:
        """The block whose state answers for `block`; raises ContractError
        outside the blocks this store holds."""
        if block > self.last_committed_block:
            raise ContractError(
                f"snapshot {block} not materialized "
                f"(last committed block is {self.last_committed_block})"
            )
        if block < self.first_block:
            if self.first_block != -1:
                raise ContractError(
                    f"snapshot {block} precedes the store's first block {self.first_block}"
                )
            return -1
        return block

    def read(self, key: Key, snapshot: BlockId) -> Value:
        if snapshot == self.last_committed_block:
            return self._latest.get(key)
        if snapshot > self.last_committed_block or snapshot < self.first_block:
            snapshot = self._materialized(snapshot)
        versions = self._versions.get(key)
        if not versions:
            return None
        idx = bisect_right(versions, snapshot, key=lambda entry: entry[0])
        if idx == 0:
            return None
        return versions[idx - 1][1]

    def install_block_writes(self, block: BlockId, writes: dict[Key, int]) -> None:
        if block != self.last_committed_block + 1:
            raise ContractError(
                f"out-of-order install: block {block} after {self.last_committed_block}"
            )
        versions = self._versions
        latest = self._latest
        elements = self._elements
        total = self._sums[block - 1]
        for key, value in writes.items():
            slot = versions.get(key)
            if slot is None:
                versions[key] = [(block, value)]
            else:
                slot.append((block, value))
                total -= elements[key]
            latest[key] = value
            element = _pair_element(key, value)
            elements[key] = element
            total += element
        self._sums[block] = total & _DIGEST_MASK
        self.last_committed_block = block

    def state_hash(self, block: Optional[BlockId] = None) -> str:
        """Digest of the (key, value) pairs visible at `block` plus the block
        id itself; identical across replicas iff the visible states are
        identical.

        The pairs enter through an additive multiset hash (AdHash, Bellare
        and Micciancio, EUROCRYPT 1997): each pair maps to the 2048-bit
        SHAKE-256 output of its "key=value" line, and the digest is
        SHA-256 over the block id and the sum of those elements mod 2^2048.
        An install subtracts the replaced pair's element and adds the new
        one, so each block costs O(writes), and every block's sum is kept,
        so a past block's hash is a lookup. The modulus is wide because
        Wagner's generalized-birthday attack (CRYPTO 2002) finds colliding
        multisets for an n-bit AdHash in about 2^(2 sqrt(n)) work: about
        2^32 at 256 bits, about 2^90 at 2048 bits.
        """
        if block is None:
            block = self.last_committed_block
        total = self._sums[self._materialized(block)]
        return hashlib.sha256(
            b"block:%d\n" % block + total.to_bytes(_DIGEST_BYTES, "big")
        ).hexdigest()

    def visible_state(self, block: Optional[BlockId] = None) -> dict[Key, int]:
        if block is None or block == self.last_committed_block:
            return dict(self._latest)
        block = self._materialized(block)
        read = self.read
        return {
            key: value
            for key in self._versions
            if (value := read(key, block)) is not None
        }

    @classmethod
    def from_checkpoint(
        cls, base_block: BlockId, base_state: dict[Key, int], last_writes: dict[Key, int]
    ) -> "SnapshotStore":
        """Rebuild a store holding snapshots base_block and base_block + 1.

        Versions older than the checkpoint are gone, so reads, visible states
        and state hashes below base_block raise ContractError.
        """
        store = cls(start_block=base_block - 1)
        store.install_block_writes(base_block, base_state)
        store.install_block_writes(base_block + 1, last_writes)
        store.first_block = base_block
        return store


def _pair_element(key: Key, value: int) -> int:
    """The digest element of one visible (key, value) pair."""
    line = f"{key}={value}\n".encode()
    return int.from_bytes(hashlib.shake_256(line).digest(_DIGEST_BYTES), "big")


# ---------------------------------------------------------------------------
# Hash chain / logical log


class ChainLog:
    """Append-only block sequence with hash links, optionally file-backed.

    Blocks are persisted before execution begins; the file is JSON lines,
    one block per line.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.blocks: list[Block] = []
        self._path = Path(path) if path is not None else None
        self._fh = open(self._path, "a", encoding="utf-8") if self._path else None

    @property
    def tip_hash(self) -> str:
        return self.blocks[-1].hash if self.blocks else GENESIS_PREV_HASH

    def append_block(self, block: Block) -> None:
        if block.id != len(self.blocks):
            raise ChainError(f"expected block {len(self.blocks)}, got {block.id}")
        if block.prev_hash != self.tip_hash:
            raise ChainError(f"block {block.id} prev_hash does not match chain tip")
        txns_json = encode_txns(block.txns)
        payload = block_payload(block.id, block.txns, txns_json)
        if compute_block_hash(block.prev_hash, payload) != block.hash:
            raise ChainError(f"block {block.id} hash does not match its payload")
        self.blocks.append(block)
        if self._fh is not None:
            self._fh.write(_block_to_line(block, txns_json))
            self._fh.write("\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def verify_chain(self) -> Optional[BlockId]:
        """Recompute every hash link; smallest invalid block id, None if OK."""
        prev = GENESIS_PREV_HASH
        for i, block in enumerate(self.blocks):
            payload = block_payload(block.id, block.txns)
            if (
                block.id != i
                or block.prev_hash != prev
                or compute_block_hash(block.prev_hash, payload) != block.hash
            ):
                return i
            prev = block.hash
        return None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @classmethod
    def load(cls, path: str | Path) -> "ChainLog":
        """Parse a log file without verifying links (see verify_chain)."""
        chain = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    block = Block(
                        id=obj["id"],
                        txns=tuple(Transaction.from_obj(t) for t in obj["txns"]),
                        prev_hash=obj["prev_hash"],
                        hash=obj["hash"],
                    )
                except (ValueError, KeyError) as exc:
                    raise ChainError(f"corrupt log line {lineno}: {exc}") from exc
                chain.blocks.append(block)
        return chain


def _block_to_line(block: Block, txns_json: str) -> str:
    """canonical_json({"id", "prev_hash", "hash", "txns"}) of the block,
    with txns_json = encode_txns(block.txns) spliced in unchanged."""
    head = canonical_json(
        {"id": block.id, "prev_hash": block.prev_hash, "hash": block.hash}
    )
    return f'{head[:-1]},"txns":{txns_json}}}'


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    block: BlockId
    base_state: dict[Key, int]  # full state as of block - 1
    last_writes: dict[Key, int]  # writes of the checkpointed block itself
    engine_state: Optional[dict]


class CheckpointManager:
    """Writes a full snapshot every p blocks. Once the marker naming a new
    checkpoint is durable, it deletes all but the CHECKPOINTS_KEPT newest."""

    def __init__(self, directory: str | Path, p: int = 10):
        if p <= 0:
            raise ContractError("checkpoint period must be positive")
        self.directory = Path(directory)
        self.p = p

    def maybe_checkpoint(
        self,
        store: SnapshotStore,
        block_writes: dict[Key, int],
        engine_state: Optional[dict],
    ) -> bool:
        block = store.last_committed_block
        if block <= 0 or block % self.p != 0:
            return False
        base = store.visible_state()
        for key in block_writes:
            prior = store.read(key, block - 1)
            if prior is None:
                base.pop(key, None)
            else:
                base[key] = prior
        body = {
            "block": block,
            "base_state": base,
            "last_writes": dict(block_writes),
            "engine_state": engine_state,
        }
        encoded = canonical_json(body)
        checksum = hashlib.sha256(encoded.encode()).hexdigest()
        path = self.directory / f"checkpoint_{block:08d}.json"
        # canonical_json({"checksum": checksum, "body": body}), built around
        # the body encoded once
        _atomic_write(path, f'{{"checksum":"{checksum}","body":{encoded}}}')
        _atomic_write(
            self.directory / CHECKPOINT_MARKER,
            canonical_json({"checkpoint_block": block}),
        )
        # zero-padded names sort by block; the older of the two kept is the
        # fallback for a torn write of the newer
        for stale in sorted(self.directory.glob("checkpoint_*.json"))[:-CHECKPOINTS_KEPT]:
            stale.unlink()
        return True


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_checkpoint_file(path: Path) -> Optional[Checkpoint]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.loads(fh.read())
        body = obj["body"]
        if hashlib.sha256(canonical_json(body).encode()).hexdigest() != obj["checksum"]:
            return None
        return Checkpoint(
            block=body["block"],
            base_state=dict(body["base_state"]),
            last_writes=dict(body["last_writes"]),
            engine_state=body["engine_state"],
        )
    except (OSError, ValueError, KeyError):
        return None


def load_latest_checkpoint(directory: str | Path) -> Optional[Checkpoint]:
    """Newest complete checkpoint; an interrupted write falls back to the
    previous one."""
    directory = Path(directory)
    candidates = sorted(directory.glob("checkpoint_*.json"), reverse=True)
    marker = directory / CHECKPOINT_MARKER
    if marker.exists():
        try:
            with open(marker, encoding="utf-8") as fh:
                marked = json.loads(fh.read())["checkpoint_block"]
            preferred = directory / f"checkpoint_{marked:08d}.json"
            if preferred in candidates:
                candidates.remove(preferred)
                candidates.insert(0, preferred)
        except (OSError, ValueError, KeyError):
            pass
    for path in candidates:
        checkpoint = _read_checkpoint_file(path)
        if checkpoint is not None:
            return checkpoint
    return None


# ---------------------------------------------------------------------------
# Recovery


@dataclass
class RecoveredReplica:
    store: SnapshotStore
    chain: ChainLog
    engine: object
    last_block: BlockId
    state_hashes: dict[BlockId, str] = field(default_factory=dict)


def recover(
    directory: str | Path,
    build_engine: Callable[[SnapshotStore, Optional[dict]], object],
) -> RecoveredReplica:
    """Load the newest complete checkpoint and re-execute logged blocks
    after it.

    build_engine(store, engine_state) must return an engine whose
    process_block replays deterministically. Raises RecoveryError when the
    log is missing blocks after the checkpoint, when a block's prev_hash
    does not match the recorded hash of the block before it, or when a
    replayed block's payload does not match its hash. Payloads of blocks up
    to the checkpoint are not re-hashed: their state comes from the
    checksummed checkpoint, not from the log.
    """
    directory = Path(directory)
    chain_path = directory / CHAIN_FILE
    if not chain_path.exists():
        raise RecoveryError(f"no chain log at {chain_path}")
    chain = ChainLog.load(chain_path)
    prev_hash = GENESIS_PREV_HASH
    for block in chain.blocks:
        if block.prev_hash != prev_hash:
            raise RecoveryError(f"block {block.id}: broken prev_hash link")
        prev_hash = block.hash
    checkpoint = load_latest_checkpoint(directory)
    if checkpoint is not None:
        if len(chain.blocks) <= checkpoint.block:
            raise RecoveryError(
                f"log truncated: checkpoint at block {checkpoint.block} but the "
                f"log ends at block {len(chain.blocks) - 1}"
            )
        store = SnapshotStore.from_checkpoint(
            checkpoint.block - 1, checkpoint.base_state, checkpoint.last_writes
        )
        engine_state = checkpoint.engine_state
    else:
        store = SnapshotStore()
        engine_state = None
    engine = build_engine(store, engine_state)
    recovered = RecoveredReplica(
        store=store, chain=chain, engine=engine, last_block=store.last_committed_block
    )
    for block in chain.blocks[store.last_committed_block + 1 :]:
        if block.id != store.last_committed_block + 1:
            raise RecoveryError(
                f"log gap: expected block {store.last_committed_block + 1}, "
                f"found {block.id}"
            )
        payload = block_payload(block.id, block.txns)
        if compute_block_hash(block.prev_hash, payload) != block.hash:
            raise RecoveryError(f"block {block.id}: payload does not match its hash")
        engine.process_block(block)
        recovered.state_hashes[block.id] = store.state_hash()
    recovered.last_block = store.last_committed_block
    return recovered
