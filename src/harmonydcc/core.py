"""Domain types and the update-command algebra.

Transactions are small interpreted programs (read steps, guarded branch
steps, update steps) rather than host-language closures, so blocks can be
serialized, hashed, logged, and replayed bit-exactly. Update steps emit
read-modify-write commands (add / mul / set) instead of computed values;
commands compose left-to-right and are evaluated once, at commit time.

All values are signed 64-bit integers. A key that was never written reads
as absent (None); arithmetic commands treat absent as 0.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
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


class UpdateCommand(NamedTuple):
    kind: str  # ADD | MUL | SET
    operand: int
    issuer: Tid


class CommandChain(NamedTuple):
    """Left-to-right composition of primitive commands."""

    parts: tuple[UpdateCommand, ...]


Command = Union[UpdateCommand, CommandChain]


def _check64(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise UpdateOverflowError(f"value {value} outside signed 64-bit range")
    return value


def apply_command(cmd: Command, value: Value) -> int:
    """Apply a command (or composed chain) to a value; absent reads as 0 for
    arithmetic, while set ignores its input entirely."""
    if type(cmd) is CommandChain:
        out = value
        for part in cmd.parts:
            out = apply_command(part, out)
        return out  # chain is non-empty by construction
    kind = cmd.kind
    if kind == ADD:
        return _check64((value or 0) + cmd.operand)
    if kind == MUL:
        return _check64((value or 0) * cmd.operand)
    if kind == SET:
        return _check64(cmd.operand)
    raise ProgramError(f"unknown command kind {kind!r}")


def compose(commands) -> Command:
    """Fuse an ordered command list into one evaluable command.

    Applying the result equals applying the inputs left to right, and the
    operation is associative, so per-transaction pre-coalescing and
    commit-time coalescing can nest freely.
    """
    parts: list[UpdateCommand] = []
    for cmd in commands:
        if type(cmd) is CommandChain:
            parts.extend(cmd.parts)
        else:
            parts.append(cmd)
    if not parts:
        raise ContractError("compose() requires at least one command")
    if len(parts) == 1:
        return parts[0]
    return CommandChain(tuple(parts))


def reads_input(cmd: Command) -> bool:
    """True if the command's output depends on its input value.

    A set anywhere in a chain severs the dependence on the incoming value,
    so such chains behave as blind writes.
    """
    if type(cmd) is CommandChain:
        return all(p.kind != SET for p in cmd.parts)
    return cmd.kind != SET


class ReadRecord(NamedTuple):
    key: Key
    snapshot_block: BlockId
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
) -> tuple[list[tuple[Key, Value, bool]], dict[Key, Command], list[Key]]:
    """Interpret a program against a read callback.

    Returns (reads, commands, updated_keys) where reads are
    (key, observed, own_read) triples in program order, commands hold one
    pre-coalesced command per updated key, and updated_keys lists keys in
    first-update order.

    A read of a key the transaction already updated is served by evaluating
    its own command chain on the underlying value, and is still recorded so
    dependencies against other writers of that key are captured.
    """
    reads: list[tuple[Key, Value, bool]] = []
    commands: dict[Key, Command] = {}
    updated: list[Key] = []
    last_read: dict[Key, Value] = {}
    pc = 0
    n = len(steps)
    while pc < n:
        step = steps[pc]
        pc += 1
        kind = type(step)
        if kind is ReadStep:
            base = read_value(step.key)
            own = step.key in commands
            value = apply_command(commands[step.key], base) if own else base
            reads.append((step.key, value, own))
            last_read[step.key] = value
        elif kind is UpdateStep:
            cmd = UpdateCommand(step.kind, step.operand, tid)
            prev = commands.get(step.key)
            if prev is None:
                commands[step.key] = cmd
                updated.append(step.key)
            else:
                commands[step.key] = compose((prev, cmd))
        elif kind is BranchStep:
            if step.key not in last_read:
                raise ProgramError(f"T{tid} branches on unread key {step.key!r}")
            op = _CMP.get(step.cmp)
            if op is None:
                raise ProgramError(f"unknown comparison {step.cmp!r}")
            observed = last_read[step.key]
            if not op(0 if observed is None else observed, step.operand):
                pc += step.skip
                if pc > n:
                    raise ProgramError(f"T{tid} branch skips past program end")
        else:
            raise ProgramError(f"unknown step {step!r}")
    return reads, commands, updated


# ---------------------------------------------------------------------------
# Transactions and blocks


@dataclass(frozen=True)
class Transaction:
    """A deterministic procedure: given identical read results it emits
    identical reads and update commands in identical order."""

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
        steps = tuple(_step_from_obj(s) for s in obj["steps"])
        return Transaction(tid=obj["tid"], block=obj["block"], steps=steps)


def _step_to_obj(step: Step) -> list:
    kind = type(step)
    if kind is ReadStep:
        return ["read", step.key]
    if kind is UpdateStep:
        return ["update", step.key, step.kind, step.operand]
    if kind is BranchStep:
        return ["branch", step.key, step.cmp, step.operand, step.skip]
    raise ProgramError(f"unknown step {step!r}")


def _step_from_obj(obj: list) -> Step:
    tag = obj[0]
    if tag == "read":
        return ReadStep(obj[1])
    if tag == "update":
        return UpdateStep(obj[1], obj[2], obj[3])
    if tag == "branch":
        return BranchStep(obj[1], obj[2], obj[3], obj[4])
    raise ProgramError(f"unknown step tag {tag!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


@dataclass(frozen=True)
class Block:
    """Ordered transactions plus the hash link to the previous block."""

    id: BlockId
    txns: tuple[Transaction, ...]
    prev_hash: str  # hex sha256, 32 zero bytes for the genesis block
    hash: str

    def __post_init__(self) -> None:
        tids = [t.tid for t in self.txns]
        for i in range(1, len(tids)):
            if tids[i] != tids[i - 1] + 1:
                raise ContractError(f"block {self.id} tids not contiguous: {tids}")


def encode_txns(txns) -> str:
    """Canonical JSON of a block's transactions, the one encoding that both
    the hash payload and the log line embed."""
    return canonical_json([t.to_obj() for t in txns])


def block_payload(block_id: BlockId, txns, txns_json: Optional[str] = None) -> bytes:
    """The bytes a block's hash covers: canonical_json({"id", "txns"}).
    Pass txns_json, the output of encode_txns(txns), to reuse an encoding."""
    if txns_json is None:
        txns_json = encode_txns(txns)
    return f'{{"id":{canonical_json(block_id)},"txns":{txns_json}}}'.encode()


def compute_block_hash(prev_hash: str, payload: bytes) -> str:
    return hashlib.sha256(bytes.fromhex(prev_hash) + payload).hexdigest()


def seal_block(block_id: BlockId, txns, prev_hash: str) -> Block:
    txns = tuple(txns)
    digest = compute_block_hash(prev_hash, block_payload(block_id, txns))
    return Block(id=block_id, txns=txns, prev_hash=prev_hash, hash=digest)
