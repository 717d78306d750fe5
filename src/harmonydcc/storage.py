"""Two-snapshot block store, hash chain, logical log, recovery.

Recovery relies purely on determinism: the log keeps only the ordered input
blocks (logical logging), and replaying them from the newest complete
checkpoint reproduces every per-block state hash of the original run.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
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
)

CHAIN_FILE = "chain.log"
# full checkpoints kept: the newest and the one before it, the fallback for a
# torn write of the newest; the deltas written since the newest are kept too
CHECKPOINTS_KEPT = 2
MAX_DELTAS = 16  # deltas written after a full checkpoint before the next full one
_DIGEST_BYTES = 256  # state digest elements and sums are 2048-bit
_DIGEST_MASK = (1 << (8 * _DIGEST_BYTES)) - 1


class ChainError(RuntimeError):
    """Hash-link mismatch, out-of-order append, or a corrupt log."""


class RecoveryError(RuntimeError):
    """The persisted log cannot reproduce the pre-crash state."""


class SnapshotStore:
    """Key/value store holding two snapshots: last_committed_block and the
    block before it, the only ones an engine reads (a block simulates at
    b-1, or at b-2 with inter-block parallelism, and commits on b-1).

    The state at last_committed_block is one dict; the block before it is
    that dict under the last install's before-images, each key the last
    block wrote mapped to its previous value, or to None where the key was
    absent. Reads at any other snapshot raise ContractError. A fresh store
    holds the empty state at start_block and the block before it. Installs
    are serialized by block id, and last_committed_block only advances
    after every write of the block is in place. The visible state and the
    state hash are those of last_committed_block.
    """

    def __init__(self, start_block: BlockId = -1):
        self._latest: dict[Key, int] = {}
        self._before: dict[Key, Optional[int]] = {}  # the last block's before-images
        self._elements: dict[Key, int] = {}  # digest element of each visible pair
        self._sum = 0  # digest sum of the visible pairs
        self.last_committed_block: BlockId = start_block

    def read(self, key: Key, snapshot: BlockId) -> Value:
        last = self.last_committed_block
        if snapshot == last:
            return self._latest.get(key)
        if snapshot == last - 1:
            before = self._before
            return before[key] if key in before else self._latest.get(key)
        raise ContractError(
            f"snapshot {snapshot} is not held: the store holds blocks "
            f"{last - 1} and {last}"
        )

    def install_block_writes(self, block: BlockId, writes: dict[Key, int]) -> None:
        if block != self.last_committed_block + 1:
            raise ContractError(
                f"out-of-order install: block {block} after {self.last_committed_block}"
            )
        latest = self._latest
        elements = self._elements
        before = {}
        total = self._sum
        for key, value in writes.items():
            before[key] = latest.get(key)
            latest[key] = value
            element = _pair_element(key, value)
            total += element - elements.get(key, 0)
            elements[key] = element
        self._before = before
        self._sum = total & _DIGEST_MASK
        self.last_committed_block = block

    def state_hash(self) -> str:
        """Digest of the (key, value) pairs visible at last_committed_block
        plus the block id itself; identical across replicas iff the visible
        states are identical.

        The pairs enter through an additive multiset hash (AdHash, Bellare
        and Micciancio, EUROCRYPT 1997): each pair maps to the 2048-bit
        SHAKE-256 output of its "key=value" line, and the digest is
        SHA-256 over the block id and the sum of those elements mod 2^2048.
        An install subtracts the replaced pair's element and adds the new
        one, so each block costs O(writes) and the store keeps one running
        sum. The modulus is wide because Wagner's generalized-birthday
        attack (CRYPTO 2002) finds colliding multisets for an n-bit AdHash
        in about 2^(2 sqrt(n)) work: about 2^32 at 256 bits, about 2^90 at
        2048 bits.
        """
        return hashlib.sha256(
            b"block:%d\n" % self.last_committed_block
            + self._sum.to_bytes(_DIGEST_BYTES, "big")
        ).hexdigest()

    def visible_state(self) -> dict[Key, int]:
        """The (key, value) pairs visible at last_committed_block."""
        return dict(self._latest)

    @classmethod
    def from_checkpoint(
        cls, base_block: BlockId, base_state: dict[Key, int], last_writes: dict[Key, int]
    ) -> "SnapshotStore":
        """Rebuild the store a replica held after block base_block + 1:
        base_state at base_block, then last_writes installed. It answers
        the same reads as that replica's store, at base_block and
        base_block + 1, and raises ContractError at any other snapshot.
        """
        store = cls(start_block=base_block)
        store._latest = dict(base_state)
        store._elements = {key: _pair_element(key, v) for key, v in base_state.items()}
        store._sum = sum(store._elements.values()) & _DIGEST_MASK
        store.install_block_writes(base_block + 1, last_writes)
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
        """Check the block's links and its hash over block.txns_json, which
        a sealed block already holds (Block says why the check stays sound),
        then append it and write it to the file if there is one."""
        fault = _link_fault(block, len(self.blocks), self.tip_hash)
        if fault is not None:
            raise ChainError(fault)
        self.blocks.append(block)
        if self._fh is not None:
            self._fh.write(_block_to_line(block))
            self._fh.write("\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def verify_chain(self) -> Optional[BlockId]:
        """Recompute every hash link; smallest invalid block id, None if OK."""
        prev = GENESIS_PREV_HASH
        for i, block in enumerate(self.blocks):
            if _link_fault(block, i, prev) is not None:
                return i
            prev = block.hash
        return None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


_PAYLOAD_FAULT = "hash does not match its payload"


def _link_fault(entry: Block | _LogLine, position: int, prev_hash: str) -> Optional[str]:
    """Why `entry` cannot stand at `position` after a block hashed
    prev_hash, or None: its id must be its position, its prev_hash that
    hash, and its hash the hash of its payload over entry.txns_json."""
    if entry.id != position:
        return f"expected block {position}, found block {entry.id}"
    if entry.prev_hash != prev_hash:
        return f"block {entry.id}: prev_hash does not match the block before it"
    payload = block_payload(entry.id, entry.txns_json)
    if compute_block_hash(entry.prev_hash, payload) != entry.hash:
        return f"block {entry.id}: {_PAYLOAD_FAULT}"
    return None


def _block_to_line(block: Block) -> str:
    """canonical_json({"id", "prev_hash", "hash", "txns"}) of the block,
    with its txns_json spliced in unchanged."""
    head = canonical_json(
        {"id": block.id, "prev_hash": block.prev_hash, "hash": block.hash}
    )
    return f'{head[:-1]},"txns":{block.txns_json}}}'


_TXNS_FIELD = ',"txns":'


@dataclass(frozen=True)
class _LogLine:
    """One chain.log line split as _block_to_line writes it: the parsed
    head and the transactions' JSON text exactly as stored."""

    lineno: int
    id: BlockId
    prev_hash: str
    hash: str
    txns_json: str

    def txns_obj(self) -> list:
        """The txns text parsed; ChainError if it is not valid JSON."""
        try:
            return json.loads(self.txns_json)
        except ValueError as exc:
            raise ChainError(f"corrupt log line {self.lineno}: {exc}") from exc

    def decode(self) -> Block:
        try:
            txns = tuple(Transaction.from_obj(t) for t in self.txns_obj())
        except KeyError as exc:
            raise ChainError(f"corrupt log line {self.lineno}: {exc}") from exc
        return Block(id=self.id, txns=txns, prev_hash=self.prev_hash, hash=self.hash)


def _read_log(path: str | Path) -> list[_LogLine]:
    """Split every line of a log file into its head and its txns text,
    leaving the transactions undecoded. A line not of the form
    {<head>,"txns":<txns>} raises ChainError."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cut = line.find(_TXNS_FIELD)
            try:
                if cut < 0 or not line.endswith("}"):
                    raise ValueError("not a block line")
                head = json.loads(line[:cut] + "}")
                lines.append(_LogLine(
                    lineno=lineno,
                    id=head["id"],
                    prev_hash=head["prev_hash"],
                    hash=head["hash"],
                    txns_json=line[cut + len(_TXNS_FIELD) : -1],
                ))
            except (ValueError, KeyError) as exc:
                raise ChainError(f"corrupt log line {lineno}: {exc}") from exc
    return lines


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    """The state recovery starts from, whether it was written whole or as a
    chain of deltas on a full checkpoint."""

    block: BlockId
    base_state: dict[Key, int]  # full state as of block - 1
    last_writes: dict[Key, int]  # writes of the checkpointed block itself
    engine_state: Optional[dict]


class CheckpointManager:
    """Writes a checkpoint every p blocks: a delta when it can extend the
    checkpoint it wrote last, a full snapshot otherwise.

    A delta's base_state holds only the keys written since that checkpoint's
    base block, with their values as of block - 1, in first-write order, and
    its "base" field names the checkpoint it extends by block and checksum.
    A full checkpoint is written when the manager has nothing to extend (its
    first checkpoint, or the checkpoint after a call it did not see or a
    write that failed), when the deltas since the last full checkpoint would
    hold more keys than half of it, and when MAX_DELTAS deltas follow it,
    which bounds what recovery reads and how many files it opens.
    Once a new full checkpoint is durable, the manager deletes every other
    checkpoint file but the full one it wrote before, the fallback for a
    torn write of the new one. No other file names the newest checkpoint:
    recovery finds it by the block numbers in the file names.
    """

    def __init__(self, directory: str | Path, p: int = 10):
        if p <= 0:
            raise ContractError("checkpoint period must be positive")
        self.directory = Path(directory)
        self.p = p
        self._last_block: Optional[BlockId] = None  # block of the previous call
        self._base: Optional[tuple[BlockId, str]] = None  # what a delta extends
        self._changed: dict[Key, None] = {}  # keys written from _base's block on
        self._full_keys = 0  # keys in the newest full checkpoint
        self._delta_keys = 0  # keys in the deltas written since it
        self._deltas = 0  # deltas written since it
        self._fulls: list[Path] = []  # newest full checkpoints written, oldest first

    def maybe_checkpoint(
        self,
        store: SnapshotStore,
        block_writes: dict[Key, int],
        engine_state: Optional[dict],
    ) -> bool:
        block = store.last_committed_block
        if self._last_block != block - 1:
            self._base = None  # the changed keys miss a block
        self._last_block = block
        if block <= 0 or block % self.p != 0:
            self._changed.update(dict.fromkeys(block_writes))
            return False
        base, self._base = self._base, None  # a failed write leaves nothing to extend
        changed = self._changed
        full = (
            base is None
            or self._deltas >= MAX_DELTAS
            or 2 * (self._delta_keys + len(changed)) > self._full_keys
        )
        if full:
            base_state = store.visible_state()
            for key in block_writes:
                prior = store.read(key, block - 1)
                if prior is None:
                    base_state.pop(key, None)
                else:
                    base_state[key] = prior
            body = {"block": block}
        else:
            base_state = {key: store.read(key, block - 1) for key in changed}
            body = {"block": block, "base": list(base)}
        body["base_state"] = base_state
        body["last_writes"] = dict(block_writes)
        body["engine_state"] = engine_state
        encoded = canonical_json(body)
        checksum = hashlib.sha256(encoded.encode()).hexdigest()
        path = self.directory / _checkpoint_name(block)
        # canonical_json({"checksum": checksum, "body": body}), built around
        # the body encoded once
        _atomic_write(path, f'{{"checksum":"{checksum}","body":{encoded}}}')
        if full:
            self._full_keys, self._delta_keys, self._deltas = len(base_state), 0, 0
            self._fulls = [*self._fulls, path][-CHECKPOINTS_KEPT:]
            self._drop_stale()
        else:
            self._delta_keys += len(base_state)
            self._deltas += 1
        self._base = (block, checksum)
        self._changed = dict.fromkeys(block_writes)
        return True

    def _drop_stale(self) -> None:
        """Delete every checkpoint file but the CHECKPOINTS_KEPT newest full
        ones this manager wrote."""
        kept = set(self._fulls)
        for path in self.directory.glob("checkpoint_*.json"):
            if path not in kept:
                path.unlink()


def _checkpoint_name(block: BlockId) -> str:
    """The checkpoint file of `block`. The padding keeps the names of the
    first 10^8 blocks in block order for a directory listing; recovery
    orders them by the number, which grows past 8 digits."""
    return f"checkpoint_{block:08d}.json"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# the file text maybe_checkpoint writes around the body it encoded once
_CHECKPOINT_FILE = re.compile(
    rb'\{"checksum":"(?P<checksum>[0-9a-f]{64})","body":(?P<body>.*)\}', re.DOTALL
)


def _read_checkpoint_file(path: Path) -> Optional[tuple[str, dict]]:
    """The checksum and body stored in `path`, or None when the file is not
    {"checksum":"<hex>","body":<body>} with the checksum of the body's
    bytes as stored."""
    try:
        match = _CHECKPOINT_FILE.fullmatch(path.read_bytes())
        if match is None:
            return None
        checksum = match["checksum"].decode()
        if hashlib.sha256(match["body"]).hexdigest() != checksum:
            return None
        return checksum, json.loads(match["body"])
    except (OSError, ValueError):
        return None


def _load_chain(directory: Path, path: Path) -> Optional[Checkpoint]:
    """The checkpoint stored in `path`, with the base links of a delta
    followed back to a full checkpoint and the base states folded oldest
    first; None when a file of the chain is missing or invalid, a base's
    checksum differs from its link, or a body lacks a checkpoint's fields."""
    bodies = []
    expected = None  # the checksum the previous file's base link names
    try:
        while True:
            stored = _read_checkpoint_file(path)
            if stored is None or expected not in (None, stored[0]):
                return None
            body = stored[1]
            bodies.append(body)
            if "base" not in body:
                break
            base_block, expected = body["base"]
            path = directory / _checkpoint_name(base_block)
        base_state: dict[Key, int] = {}
        for body in reversed(bodies):
            base_state.update(body["base_state"])
        newest = bodies[0]
        return Checkpoint(
            block=newest["block"],
            base_state=base_state,
            last_writes=dict(newest["last_writes"]),
            engine_state=newest["engine_state"],
        )
    except (ValueError, KeyError, TypeError):
        return None


def load_latest_checkpoint(directory: str | Path) -> Optional[Checkpoint]:
    """The checkpoint with the highest block number, in its file name, whose
    checksum and chain of bases verify; an interrupted or otherwise invalid
    write, or a delta whose chain of bases is broken, falls back to the
    next lower block."""
    directory = Path(directory)
    numbered = [
        (int(number), path)
        for path in directory.glob("checkpoint_*.json")
        if (number := path.stem[len("checkpoint_"):]).isdecimal()
    ]
    for _, path in sorted(numbered, reverse=True):
        checkpoint = _load_chain(directory, path)
        if checkpoint is not None:
            return checkpoint
    return None


# ---------------------------------------------------------------------------
# Recovery


@dataclass
class RecoveredReplica:
    store: SnapshotStore
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
    process_block replays deterministically. Every logged block is checked
    before anything is replayed, by the rule append_block applies: its id
    against its position, its prev_hash against the recorded hash of the
    block before it, and its hash against its payload bytes as stored. A
    line that is not valid JSON raises ChainError, also when only its txns
    are torn and its hash check fails; a failed check, or a log that ends
    at or before the checkpoint, raises RecoveryError naming the block.
    Only the blocks after the checkpoint are decoded into transactions.
    """
    directory = Path(directory)
    chain_path = directory / CHAIN_FILE
    if not chain_path.exists():
        raise RecoveryError(f"no chain log at {chain_path}")
    lines = _read_log(chain_path)
    prev_hash = GENESIS_PREV_HASH
    for position, line in enumerate(lines):
        fault = _link_fault(line, position, prev_hash)
        if fault is not None:
            if fault.endswith(_PAYLOAD_FAULT):
                line.txns_obj()  # a line torn inside its txns is corrupt, not tampered
            raise RecoveryError(fault)
        prev_hash = line.hash
    checkpoint = load_latest_checkpoint(directory)
    if checkpoint is not None:
        if len(lines) <= checkpoint.block:
            raise RecoveryError(
                f"log truncated: checkpoint at block {checkpoint.block} but the "
                f"log ends at block {len(lines) - 1}"
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
        store=store, engine=engine, last_block=store.last_committed_block
    )
    for line in lines[store.last_committed_block + 1 :]:
        engine.process_block(line.decode())
        recovered.state_hashes[line.id] = store.state_hash()
    recovered.last_block = store.last_committed_block
    return recovered
