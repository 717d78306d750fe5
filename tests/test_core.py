import gc
import operator
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


def add(c):
    return UpdateStep("x", "add", c)


def mul(c):
    return UpdateStep("x", "mul", c)


def set_(v):
    return UpdateStep("x", "set", v)


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
            UpdateStep("x", rng.choice(kinds), rng.randint(-100, 100))
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


def test_kept_block_results_hold_the_blocks_own_steps_as_commands():
    """A primitive command is the program's own UpdateStep object and a
    chain the exact 1-tuple of them, so processing a block allocates no
    primitive command."""
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
    commands = [cmd for by_key in result.commands.values() for cmd in by_key.values()]
    chains = [cmd for cmd in commands if len(cmd) == 1]
    primitives = [part for cmd in commands for part in (cmd[0] if len(cmd) == 1 else (cmd,))]
    steps = [step for txn in block.txns for step in txn.steps if type(step) is UpdateStep]
    assert len(chains) == 1 and type(chains[0]) is tuple and type(chains[0][0]) is tuple
    assert len(primitives) == len(steps) == 6
    assert all(map(operator.is_, primitives, steps))


def _reachable_tuples(root):
    """Every tuple, NamedTuples included, reachable from root's referents
    without passing through a class."""
    found, seen, stack = [], set(), list(gc.get_referents(root))
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, tuple):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


ENGINES = [("harmony", False), ("harmony", True), ("fabric", False), ("aria", False), ("serial", False)]


@pytest.mark.parametrize("engine, inter_block", ENGINES)
def test_kept_block_results_hold_no_reads_the_collector_tracks(engine, inter_block):
    """A kept BlockResult holds each transaction's reads as one flat tuple
    of keys, values and flags, which the cyclic collector untracks, so they
    add nothing to what every full collection walks; ReadRecords exist only
    while someone reads them."""
    from harmonydcc.pipeline import RunConfig, make_blocks, run_replicas
    from harmonydcc.workloads import WorkloadSpec, generate

    spec = WorkloadSpec(kind="smallbank", keys=40, theta=0.9, seed=3)
    blocks = make_blocks(generate(spec, 120), 10)
    config = RunConfig(replicas=1, engine=engine, inter_block=inter_block)
    results = run_replicas(blocks, config).results[0]
    gc.collect()
    held = [obj for result in results for obj in _reachable_tuples(result.reads)]
    per_tid = [raw for result in results for raw in result.reads.raw.values()]
    reads = sum(len(records) for result in results for records in result.reads.values())
    assert reads > 150
    assert {id(obj) for obj in held} == {id(raw) for raw in per_tid}  # no tuple per read
    assert [obj for obj in held if gc.is_tracked(obj)] == []


@pytest.mark.parametrize("engine, inter_block", ENGINES)
def test_a_kept_result_allocates_per_transaction_not_per_step(engine, inter_block):
    """What a kept result of one YCSB block reaches: at most one tuple per
    transaction for its reads, and no command tuple but the block's own
    UpdateSteps and (parts,) chains of them."""
    from harmonydcc.pipeline import RunConfig, make_blocks, run_replicas
    from harmonydcc.workloads import WorkloadSpec, generate

    spec = WorkloadSpec(kind="ycsb", keys=50, theta=0.99, seed=7)
    (block,) = make_blocks(generate(spec, 40), 40)
    config = RunConfig(replicas=1, engine=engine, inter_block=inter_block)
    (result,) = run_replicas([block], config).results[0]
    assert len(_reachable_tuples(result.reads)) <= len(block.txns)

    steps = {id(step) for txn in block.txns for step in txn.steps}
    held = _reachable_tuples(result.commands)
    chains = [obj for obj in held if len(obj) == 1]
    assert chains  # some transaction updates a key twice
    assert all(id(part) in steps for chain in chains for part in chain[0])
    allowed = steps | {id(chain) for chain in chains} | {id(chain[0]) for chain in chains}
    assert [obj for obj in held if id(obj) not in allowed] == []


# ---------------------------------------------------------------------------
# Program interpreter


def test_own_read_sees_pending_update():
    steps = (UpdateStep("x", "add", 10), ReadStep("x"))
    reads, commands = execute_program(1, steps, lambda k: 10)
    assert reads == ["x", 20, True]
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


def test_branch_skip_to_the_last_step_returns_without_the_skipped_updates():
    skipped = (UpdateStep("a", "add", 1), UpdateStep("b", "add", 1))
    steps = (ReadStep("x"), BranchStep("x", "lt", 0, len(skipped))) + skipped
    reads, commands = execute_program(1, steps, lambda k: 10)
    assert reads == ["x", 10, False]
    assert commands == {}


def test_branch_skip_one_past_the_last_step_is_error():
    skipped = (UpdateStep("a", "add", 1), UpdateStep("b", "add", 1))
    steps = (ReadStep("x"), BranchStep("x", "lt", 0, len(skipped) + 1)) + skipped
    with pytest.raises(ProgramError, match="skips past program end"):
        execute_program(1, steps, lambda k: 10)


def test_branch_skipping_backwards_is_error():
    # a backward jump re-runs the branch on the same read, forever; the alarm
    # turns a hang into a failure
    import signal

    def hang(signum, frame):
        raise TimeoutError("execute_program did not return")

    steps = (ReadStep("k"), BranchStep("k", "ge", 1, -1))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ProgramError, match="backwards"):
            execute_program(0, steps, lambda k: None)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_each_step_encodes_as_its_tag_and_fields_and_other_types_are_refused():
    steps = (ReadStep("a"), UpdateStep("b", "mul", -3), BranchStep("a", "le", 4, 1))
    assert Transaction(0, 0, steps).to_obj()["steps"] == [
        ["read", "a"], ["update", "b", "mul", -3], ["branch", "a", "le", 4, 1],
    ]
    with pytest.raises(ProgramError, match=r"unknown step \('read', 'a'\)"):
        Transaction(0, 0, (("read", "a"),)).to_obj()


def test_block_seal_is_stable():
    txns = [_sample_txn(0), _sample_txn(1)]
    a = seal_block(0, txns, "0" * 64)
    b = seal_block(0, txns, "0" * 64)
    assert a.hash == b.hash
    assert block_payload(a.id, a.txns_json) == block_payload(b.id, b.txns_json)


def test_a_sealed_block_is_encoded_once(monkeypatch):
    """Sealing encodes the transactions; four replicas appending the block
    to their chains, which checks its hash, reuse that encoding. Counted at
    Transaction.to_obj, which every encoding calls once per transaction."""
    from harmonydcc.pipeline import Replica, RunConfig

    encoded = []
    to_obj = Transaction.to_obj
    monkeypatch.setattr(Transaction, "to_obj", lambda t: encoded.append(t.tid) or to_obj(t))
    block = seal_block(0, [_sample_txn(0), _sample_txn(1)], "0" * 64)
    replicas = [Replica(i, RunConfig(replicas=4)) for i in range(4)]
    for replica in replicas:
        assert replica.receive(block) is not None
    assert encoded == [0, 1]
    assert replicas[0].chain.blocks[0].txns_json == core.encode_txns(block.txns)


def test_block_rejects_non_contiguous_tids():
    with pytest.raises(ContractError):
        seal_block(0, [_sample_txn(0), _sample_txn(2)], "0" * 64)
