import gc
import random

import pytest

from harmonydcc import core
from harmonydcc.core import (
    INT64_MAX,
    BranchStep,
    ContractError,
    ProgramError,
    ReadStep,
    Transaction,
    UpdateOverflowError,
    UpdateStep,
    apply_command,
    block_payload,
    compose,
    execute_program,
    reads_input,
    seal_block,
)


def add(c, issuer=0):
    return ("add", c, issuer)


def mul(c, issuer=0):
    return ("mul", c, issuer)


def set_(v, issuer=0):
    return ("set", v, issuer)


def test_apply_command_examples():
    assert apply_command(add(10), 10) == 20
    assert apply_command(mul(3), 10) == 30
    assert apply_command(set_(7), None) == 7


def test_absent_coerces_to_zero_for_arithmetic():
    assert apply_command(add(5), None) == 5
    assert apply_command(mul(5), None) == 0


def test_apply_command_is_deterministic():
    cmd = add(3)
    assert all(apply_command(cmd, 41) == 44 for _ in range(10))


def test_overflow_is_hard_error():
    with pytest.raises(UpdateOverflowError):
        apply_command(add(1), INT64_MAX)
    with pytest.raises(UpdateOverflowError):
        apply_command(mul(2), INT64_MAX)


def test_compose_examples():
    assert apply_command(compose([mul(3), add(10)]), 10) == 40
    assert apply_command(compose([add(10), mul(3)]), 10) == 60
    assert apply_command(compose([set_(5)]), 123) == 5


def test_compose_empty_rejected():
    with pytest.raises(ContractError):
        compose([])


def test_compose_is_associative():
    a, b, c = add(4), mul(-2), set_(9)
    left = compose([compose([a, b]), c])
    right = compose([a, compose([b, c])])
    for v in (-7, 0, 13, None):
        assert apply_command(left, v) == apply_command(right, v)


def test_compose_equals_sequential_fold():
    rng = random.Random(2024)
    kinds = ("add", "mul", "set")
    for _ in range(300):
        n = rng.randint(1, 8)
        cmds = [
            (rng.choice(kinds), rng.randint(-100, 100), 0)
            for _ in range(n)
        ]
        start = rng.randint(-100, 100)
        expected = start
        for cmd in cmds:
            expected = apply_command(cmd, expected)
        assert apply_command(compose(cmds), start) == expected


def test_reads_input():
    assert reads_input(add(1))
    assert reads_input(mul(0))  # structurally still consumes its input
    assert not reads_input(set_(5))
    assert not reads_input(compose([add(1), set_(5)]))
    assert not reads_input(compose([set_(5), add(1)]))
    assert reads_input(compose([add(1), mul(2)]))


def test_kept_block_results_hold_no_commands_the_collector_tracks():
    """A primitive command is an exact tuple of a str and two ints, which
    the cyclic collector untracks, so the commands of the BlockResults a
    replica keeps add nothing to what every full collection walks."""
    from harmonydcc.engine import HarmonyEngine
    from harmonydcc.storage import SnapshotStore

    programs = [
        (UpdateStep("x", "add", 1), UpdateStep("y", "mul", 2)),
        (ReadStep("x"), UpdateStep("z", "set", 3)),
        (UpdateStep("x", "add", 4), UpdateStep("x", "mul", 5)),  # a chain
        (UpdateStep("w", "set", 6),),
    ]
    txns = [Transaction(tid, 0, steps) for tid, steps in enumerate(programs)]
    block = seal_block(0, txns, core.GENESIS_PREV_HASH)
    result = HarmonyEngine(SnapshotStore()).process_block(block)
    gc.collect()
    primitives = [
        part
        for commands in result.commands.values()
        for cmd in commands.values()
        for part in (cmd.parts if type(cmd) is core.CommandChain else (cmd,))
    ]
    assert len(primitives) == 6
    assert all(type(cmd) is tuple for cmd in primitives)
    assert not any(gc.is_tracked(cmd) for cmd in primitives)


# ---------------------------------------------------------------------------
# Program interpreter


def test_own_read_sees_pending_update():
    steps = (UpdateStep("x", "add", 10), ReadStep("x"))
    reads, commands = execute_program(1, steps, lambda k: 10)
    assert reads == [("x", 20, True)]
    assert list(commands) == ["x"]
    assert apply_command(commands["x"], 10) == 20


def test_repeated_updates_pre_coalesce():
    steps = (UpdateStep("x", "add", 1), UpdateStep("x", "add", 2))
    _, commands = execute_program(1, steps, lambda k: 0)
    assert list(commands) == ["x"]  # one command per key per transaction
    assert apply_command(commands["x"], 10) == 13


def test_branch_guard_skips_when_false():
    steps = (
        ReadStep("bal"),
        BranchStep("bal", "ge", 5, 1),
        UpdateStep("bal", "add", -5),
    )
    _, commands = execute_program(1, steps, lambda k: 3)
    assert commands == {}
    _, commands = execute_program(1, steps, lambda k: 8)
    assert apply_command(commands["bal"], 8) == 3


def test_branch_treats_absent_as_zero():
    steps = (
        ReadStep("k"),
        BranchStep("k", "eq", 0, 1),
        UpdateStep("k", "set", 1),
    )
    _, commands = execute_program(1, steps, lambda k: None)
    assert "k" in commands


def test_branch_on_unread_key_is_error():
    with pytest.raises(ProgramError):
        execute_program(1, (BranchStep("x", "lt", 0, 1),), lambda k: 0)


def test_branch_skip_past_end_is_error():
    steps = (ReadStep("x"), BranchStep("x", "lt", 0, 5))
    with pytest.raises(ProgramError):
        execute_program(1, steps, lambda k: 10)


def test_program_emits_identically_for_identical_reads():
    steps = (
        ReadStep("a"),
        BranchStep("a", "gt", 10, 1),
        UpdateStep("b", "add", 1),
        UpdateStep("c", "mul", 2),
    )
    first = execute_program(3, steps, lambda k: 50)
    second = execute_program(3, steps, lambda k: 50)
    assert first == second


# ---------------------------------------------------------------------------
# Serialization and blocks


def _sample_txn(tid=0, block=0):
    return Transaction(
        tid=tid,
        block=block,
        steps=(
            ReadStep("a"),
            BranchStep("a", "ge", 1, 1),
            UpdateStep("b", "add", 2),
        ),
    )


def test_transaction_roundtrip():
    txn = _sample_txn(5, 2)
    obj = txn.to_obj()
    assert list(obj.keys()) == ["tid", "block", "steps"]
    assert Transaction.from_obj(obj) == txn


def test_block_seal_is_stable():
    txns = [_sample_txn(0), _sample_txn(1)]
    a = seal_block(0, txns, "0" * 64)
    b = seal_block(0, txns, "0" * 64)
    assert a.hash == b.hash
    assert block_payload(a.id, a.txns_json) == block_payload(b.id, b.txns_json)


def test_a_sealed_block_is_encoded_once(monkeypatch):
    """Sealing encodes the transactions; four replicas appending the block
    to their chains and verifying them reuse that encoding. Counted at
    Transaction.to_obj, which every encoding calls once per transaction."""
    from harmonydcc.pipeline import Replica, RunConfig

    encoded = []
    to_obj = Transaction.to_obj
    monkeypatch.setattr(Transaction, "to_obj", lambda t: encoded.append(t.tid) or to_obj(t))
    block = seal_block(0, [_sample_txn(0), _sample_txn(1)], "0" * 64)
    replicas = [Replica(i, RunConfig(replicas=4)) for i in range(4)]
    for replica in replicas:
        assert replica.receive(block) is not None
    assert all(replica.chain.verify_chain() is None for replica in replicas)
    assert encoded == [0, 1]
    assert replicas[0].chain.blocks[0].txns_json == core.encode_txns(block.txns)


def test_block_rejects_non_contiguous_tids():
    with pytest.raises(ContractError):
        seal_block(0, [_sample_txn(0), _sample_txn(2)], "0" * 64)
