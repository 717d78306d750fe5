"""Domain types and the update-command algebra.

Transactions are small interpreted programs (read steps, guarded branch
steps, update steps) rather than host-language closures, so blocks can be
serialized, hashed, logged, and replayed bit-exactly. Update steps emit
read-modify-write commands (add / mul / set) instead of computed values;
commands compose left-to-right and are evaluated once, at commit time.
Commands, reads and command chains stay exact (kind, operand, issuer),
(key, observed, own) and (parts,) tuples, which the cyclic collector
untracks, so it does not walk those a kept BlockResult holds; ReadRecords
are built from reads on access.

All values are signed 64-bit integers. A key that was never written reads
as absent (None); arithmetic commands treat absent as 0.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import length_hint
from typing import Callable, NamedTuple, Optional, Union

Tid = int
BlockId = int
Key = str
Value = Optional[int]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

ADD = "add"
MUL = "mul"
SET = "set"

GENESIS_PREV_HASH = "0" * 64


class UpdateOverflowError(ArithmeticError):
    """A command result left the signed 64-bit range (workload bug)."""


class ProgramError(ValueError):
    """A transaction program is malformed (workload bug)."""


class ContractError(RuntimeError):
    """A caller violated an operation precondition."""


UpdateCommand = tuple[str, int, Tid]  # (ADD | MUL | SET, operand, issuer)
# A left-to-right composition of primitive commands is the exact 1-tuple
# (parts,), told from a primitive by its length.
Command = Union[UpdateCommand, tuple[tuple[UpdateCommand, ...]]]


def _check64(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise UpdateOverflowError(f"value {value} outside signed 64-bit range")
    return value


def apply_command(cmd: Command, value: Value) -> int:
    """Apply a command (or composed chain) to a value; absent reads as 0 for
    arithmetic, while set ignores its input entirely."""
    if len(cmd) == 1:
        out = value
        for part in cmd[0]:
            out = apply_command(part, out)
        return out  # chain is non-empty by construction
    kind, operand, _ = cmd
    if kind == ADD:
        return _check64((value or 0) + operand)
    if kind == MUL:
        return _check64((value or 0) * operand)
    if kind == SET:
        return _check64(operand)
    raise ProgramError(f"unknown command kind {kind!r}")


def compose(commands) -> Command:
    """Fuse an ordered command list into one evaluable command.

    Applying the result equals applying the inputs left to right, and the
    operation is associative, so per-transaction pre-coalescing and
    commit-time coalescing can nest freely.
    """
    parts: list[UpdateCommand] = []
    for cmd in commands:
        if len(cmd) == 1:
            parts.extend(cmd[0])
        else:
            parts.append(cmd)
    if not parts:
        raise ContractError("compose() requires at least one command")
    if len(parts) == 1:
        return parts[0]
    return (tuple(parts),)


def reads_input(cmd: Command) -> bool:
    """True if the command's output depends on its input value.

    A set anywhere in a chain severs the dependence on the incoming value,
    so such chains behave as blind writes.
    """
    if len(cmd) == 1:
        return all(p[0] != SET for p in cmd[0])
    return cmd[0] != SET


class ReadRecord(NamedTuple):
    key: Key
    observed: Value
    own_read: bool  # served from the transaction's own pending commands


# ---------------------------------------------------------------------------
# Transaction programs


class ReadStep(NamedTuple):
    key: Key


class UpdateStep(NamedTuple):
    key: Key
    kind: str
    operand: int


class BranchStep(NamedTuple):
    """Guard: when cmp(last read of key, operand) is false, skip the next
    `skip` steps. Absent compares as 0."""

    key: Key
    cmp: str  # lt | le | gt | ge | eq | ne
    operand: int
    skip: int


Step = Union[ReadStep, UpdateStep, BranchStep]

_CMP: dict[str, Callable[[int, int], bool]] = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def execute_program(
    tid: Tid,
    steps: tuple[Step, ...],
    read_value: Callable[[Key], Value],
) -> tuple[list[tuple[Key, Value, bool]], dict[Key, Command]]:
    """Interpret a program against a read callback.

    Returns (reads, commands) where reads are (key, observed, own_read)
    triples in program order and commands hold one pre-coalesced command
    per updated key, in first-update order.

    A read of a key the transaction already updated is served by evaluating
    its own command chain on the underlying value, and is still recorded so
    dependencies against other writers of that key are captured.
    """
    reads: list[tuple[Key, Value, bool]] = []
    commands: dict[Key, Command] = {}
    last_read: dict[Key, Value] = {}
    remaining = iter(steps)
    for step in remaining:
        kind = type(step)
        if kind is ReadStep:
            (key,) = step
            value = read_value(key)
            prev = commands.get(key)
            own = prev is not None
            if own:
                value = apply_command(prev, value)
            reads.append((key, value, own))
            last_read[key] = value
        elif kind is UpdateStep:
            key, command_kind, operand = step
            cmd = (command_kind, operand, tid)
            prev = commands.get(key)
            commands[key] = cmd if prev is None else compose((prev, cmd))
        elif kind is BranchStep:
            key, cmp, operand, skip = step
            if key not in last_read:
                raise ProgramError(f"T{tid} branches on unread key {key!r}")
            op = _CMP.get(cmp)
            if op is None:
                raise ProgramError(f"unknown comparison {cmp!r}")
            observed = last_read[key]
            if not op(0 if observed is None else observed, operand):
                if skip > length_hint(remaining):
                    raise ProgramError(f"T{tid} branch skips past program end")
                if skip < 0:  # a backward jump may never end
                    raise ProgramError(f"T{tid} branch skips backwards")
                next(islice(remaining, skip, skip), None)  # drop the next skip steps
        else:
            raise ProgramError(f"unknown step {step!r}")
    return reads, commands


def run_serially(
    txns, read_value: Callable[[Key], Value]
) -> tuple[dict[Tid, tuple[list, dict[Key, Command]]], dict[Key, int]]:
    """Execute transactions one after another, each reading the writes of
    those before it over read_value. Returns each transaction's reads and
    commands, as execute_program reports them, and every written key's
    final value."""
    overlay: dict[Key, int] = {}

    def live_read(key: Key) -> Value:
        if key in overlay:
            return overlay[key]
        return read_value(key)

    executed = {}
    for txn in txns:
        reads, commands = execute_program(txn.tid, txn.steps, live_read)
        for key, command in commands.items():
            overlay[key] = apply_command(command, live_read(key))
        executed[txn.tid] = (reads, commands)
    return executed, overlay


# ---------------------------------------------------------------------------
# Transactions and blocks


@dataclass(frozen=True, slots=True)
class Transaction:
    """A deterministic procedure: given identical read results it emits
    identical reads and update commands in identical order. Immutable: its
    steps are a tuple of step tuples."""

    tid: Tid
    block: BlockId
    steps: tuple[Step, ...]

    def to_obj(self) -> dict:
        return {
            "tid": self.tid,
            "block": self.block,
            "steps": [_step_to_obj(s) for s in self.steps],
        }

    @staticmethod
    def from_obj(obj: dict) -> "Transaction":
        """Decode to_obj's form. ProgramError if tid or block is not an int
        or a step is malformed; KeyError or TypeError if obj is not of
        that form at all."""
        tid, block = obj["tid"], obj["block"]
        if type(tid) is not int or type(block) is not int:
            raise ProgramError(f"tid {tid!r} and block {block!r} must be ints")
        steps = tuple(_step_from_obj(s) for s in obj["steps"])
        return Transaction(tid=tid, block=block, steps=steps)


_STEP_TAGS = {ReadStep: "read", UpdateStep: "update", BranchStep: "branch"}


def _step_to_obj(step: Step) -> list:
    """The step's tag, then its fields in declaration order."""
    tag = _STEP_TAGS.get(type(step))
    if tag is None:
        raise ProgramError(f"unknown step {step!r}")
    return [tag, *step]


def _step_from_obj(obj: list) -> Step:
    """Decode _step_to_obj's form. ProgramError unless the step has its
    tag's arity, a str key, a known kind or comparison, int operands that
    are not bools and a non-negative int skip."""
    if type(obj) is list and len(obj) >= 2 and type(obj[1]) is str:
        tag, key, *rest = obj
        if tag == "read" and not rest:
            return ReadStep(key)
        if tag == "update" and len(rest) == 2:
            kind, operand = rest
            if kind in (ADD, MUL, SET) and type(operand) is int:
                return UpdateStep(key, kind, operand)
        if tag == "branch" and len(rest) == 3:
            cmp, operand, skip = rest
            if (type(cmp) is str and cmp in _CMP and type(operand) is int
                    and type(skip) is int and skip >= 0):
                return BranchStep(key, cmp, operand, skip)
    raise ProgramError(f"malformed step {obj!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


@dataclass(frozen=True)
class Block:
    """Ordered transactions plus the hash link to the previous block.

    txns_json, the block's one canonical encoding, is filled by seal_block
    with the text it hashed, or else on first use, never from an argument
    or stored text. Blocks and transactions are immutable, so it always
    equals encode_txns(self.txns): a hash checked over it covers the txns.
    """

    id: BlockId
    txns: tuple[Transaction, ...]
    prev_hash: str  # hex sha256, 32 zero bytes for the genesis block
    hash: str

    def __post_init__(self) -> None:
        tids = [t.tid for t in self.txns]
        for i in range(1, len(tids)):
            if tids[i] != tids[i - 1] + 1:
                raise ContractError(f"block {self.id} tids not contiguous: {tids}")

    @cached_property
    def txns_json(self) -> str:
        """encode_txns(self.txns), computed at most once per block."""
        return encode_txns(self.txns)


def encode_txns(txns) -> str:
    """Canonical JSON of a block's transactions, the one encoding that both
    the hash payload and the log line embed."""
    return canonical_json([t.to_obj() for t in txns])


def block_payload(block_id: BlockId, txns_json: str) -> bytes:
    """The bytes a block's hash covers: canonical_json({"id", "txns"}),
    built around txns_json, the output of encode_txns(txns)."""
    return f'{{"id":{canonical_json(block_id)},"txns":{txns_json}}}'.encode()


def compute_block_hash(prev_hash: str, payload: bytes) -> str:
    return hashlib.sha256(bytes.fromhex(prev_hash) + payload).hexdigest()


def seal_block(block_id: BlockId, txns, prev_hash: str) -> Block:
    """Hash txns into a block linked to prev_hash; the block keeps the
    encoding hashed here as its txns_json."""
    txns = tuple(txns)
    txns_json = encode_txns(txns)
    digest = compute_block_hash(prev_hash, block_payload(block_id, txns_json))
    block = Block(id=block_id, txns=txns, prev_hash=prev_hash, hash=digest)
    block.__dict__["txns_json"] = txns_json  # Block.txns_json's cache
    return block
