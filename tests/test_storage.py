import hashlib
import json
import random
from pathlib import Path

import pytest

from harmonydcc.core import (
    GENESIS_PREV_HASH,
    Block,
    ContractError,
    ReadStep,
    Transaction,
    UpdateStep,
    block_payload,
    canonical_json,
    compute_block_hash,
    encode_txns,
    seal_block,
)
from harmonydcc.engine import HarmonyEngine
from harmonydcc.pipeline import Replica, RunConfig, make_blocks
from harmonydcc.storage import (
    MAX_DELTAS,
    ChainError,
    ChainLog,
    CheckpointManager,
    RecoveryError,
    SnapshotStore,
    _link_fault,
    _read_log,
    load_latest_checkpoint,
    recover,
)
from harmonydcc.workloads import WorkloadSpec, generate

from test_pipeline import tamper_block


def test_read_returns_latest_version_at_or_below_snapshot():
    store = SnapshotStore()
    store.install_block_writes(0, {})
    store.install_block_writes(1, {})
    store.install_block_writes(2, {})
    store.install_block_writes(3, {"k": 9})
    store.install_block_writes(4, {})
    store.install_block_writes(5, {})
    assert store.reader(5)("k") == 9
    assert store.reader(4)("k") == 9


def test_store_holds_the_last_block_and_the_one_before_only():
    store = SnapshotStore()
    store.install_block_writes(0, {"a": 1, "u": 2})
    for block in range(1, 5):
        store.install_block_writes(block, {})
    store.install_block_writes(5, {"a": 3, "new": 4})
    assert store.reader(5)("a") == 3
    assert store.reader(4)("a") == 1  # the before-image
    assert store.reader(5)("new") == 4
    assert store.reader(4)("new") is None  # first written at 5
    assert store.reader(5)("u") == store.reader(4)("u") == 2  # not written at 5
    assert store.reader(4)("never-written") is None
    for outside in (3, 0, 6):
        with pytest.raises(ContractError):
            store.reader(outside)("a")


def test_fresh_store_holds_the_empty_state_at_genesis_and_the_block_before():
    store = SnapshotStore()
    assert store.reader(-1)("k") is None
    assert store.reader(-2)("k") is None  # inter-block block 0 reads here
    with pytest.raises(ContractError):
        store.reader(-3)("k")


def test_read_above_materialized_block_is_contract_violation():
    store = SnapshotStore()
    with pytest.raises(ContractError):
        store.reader(0)("k")


def test_install_order_enforced_and_versions_kept():
    store = SnapshotStore()
    store.install_block_writes(0, {})
    store.install_block_writes(1, {"a": 1})
    assert store.reader(0)("a") is None
    assert store.reader(1)("a") == 1
    with pytest.raises(ContractError):
        store.install_block_writes(3, {})


def test_empty_block_changes_hash_only_via_block_id():
    store = SnapshotStore()
    store.install_block_writes(0, {"a": 1})
    h0, state0 = store.state_hash(), store.visible_state()
    store.install_block_writes(1, {})
    h1 = store.state_hash()
    assert store.last_committed_block == 1
    assert h0 != h1  # same pairs, different block id
    assert state0 == store.visible_state()


def test_state_hash_matches_across_identical_stores_and_detects_flips():
    a, b = SnapshotStore(), SnapshotStore()
    for s in (a, b):
        s.install_block_writes(0, {"x": 1, "y": 2})
    assert a.state_hash() == b.state_hash()
    c = SnapshotStore()
    c.install_block_writes(0, {"x": 1, "y": 3})
    assert a.state_hash() != c.state_hash()


def test_historical_state_hash_reconstruction():
    """The hash recorded at block 0 is the hash of a store rebuilt to hold
    block 0's state, after the original store has moved past it."""
    store = SnapshotStore()
    store.install_block_writes(0, {"x": 1})
    h0 = store.state_hash()
    store.install_block_writes(1, {"x": 5, "y": 7})
    assert store.state_hash() != h0
    assert _fresh_hash({"x": 1}, 0) == h0


def _fresh_hash(state: dict, block: int) -> str:
    fresh = SnapshotStore(start_block=block - 1)
    fresh.install_block_writes(block, state)
    return fresh.state_hash()


@pytest.mark.parametrize("seed", range(6))
def test_incremental_state_hash_equals_rebuilt_hash(seed):
    """New keys, overwrites, same-value rewrites, empty blocks and a
    from_checkpoint rebuild part way through: every materialized block's
    hash equals the hash of a fresh store holding only that block's state."""
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(12)]

    def random_writes(store):
        if rng.random() < 0.2:
            return {}
        writes = {}
        for key in rng.sample(keys, rng.randint(1, 5)):
            current = store.reader(store.last_committed_block)(key)
            if current is not None and rng.random() < 0.3:
                writes[key] = current  # rewrite of the same value
            else:
                writes[key] = rng.randint(-3, 3)
        return writes

    store = SnapshotStore()
    assert store.state_hash() == _fresh_hash({}, -1)
    history, states, hashes = [], {}, {}
    for block in range(25):
        history.append(random_writes(store))
        store.install_block_writes(block, history[-1])
        states[block], hashes[block] = store.visible_state(), store.state_hash()
        assert hashes[block] == _fresh_hash(states[block], block)
    base = 9
    rebuilt = SnapshotStore.from_checkpoint(base, states[base], history[base + 1])
    for block in range(base + 1, 25):
        if block > base + 1:
            rebuilt.install_block_writes(block, history[block])
        assert rebuilt.state_hash() == _fresh_hash(rebuilt.visible_state(), block)
        assert rebuilt.state_hash() == hashes[block]
        assert rebuilt.visible_state() == states[block]


@pytest.mark.parametrize("base_state", [{"a": 1}, {}])
def test_recovered_store_rejects_reads_below_its_checkpoint(base_state):
    store = SnapshotStore.from_checkpoint(5, base_state, {})
    assert store.reader(5)("a") == base_state.get("a") == store.reader(6)("a")
    with pytest.raises(ContractError):
        store.reader(3)("a")
    with pytest.raises(ContractError):
        store.reader(7)("a")
    assert store.visible_state() == base_state
    assert store.state_hash() == _fresh_hash(base_state, 6)


@pytest.mark.parametrize("seed", range(3))
def test_store_from_checkpoint_answers_like_the_original(seed):
    """Keys only in the base state, keys rewritten or first written in the
    block after it, and a key never written read alike at both snapshots."""
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(40)]
    original = SnapshotStore()
    base = 6
    for block in range(8):
        writes = {key: rng.randint(-9, 9) for key in rng.sample(keys, 8)}
        original.install_block_writes(block, writes)
        if block == base:
            base_state = original.visible_state()
    rebuilt = SnapshotStore.from_checkpoint(base, base_state, writes)
    for block in (base, base + 1):
        for key in [*keys, "never-written"]:
            assert rebuilt.reader(block)(key) == original.reader(block)(key)
    assert rebuilt.visible_state() == original.visible_state()
    assert rebuilt.state_hash() == original.state_hash()
    assert rebuilt.state_hash() == _fresh_hash(rebuilt.visible_state(), base + 1)
    for below in (base - 1, -1):
        with pytest.raises(ContractError):
            rebuilt.reader(below)(keys[0])


def _reader(store, snapshot):
    """store.reader(snapshot), or ContractError if that call refuses it."""
    try:
        return store.reader(snapshot)
    except ContractError:
        return ContractError


@pytest.mark.parametrize("seed", range(3))
def test_live_and_recovered_stores_answer_and_refuse_the_same_snapshots(seed):
    """A store rebuilt from a checkpoint at any block answers reads at the
    last block and the one before exactly as the live store did there, and
    refuses the block before those, as the live store does: reader(s)
    itself refuses a snapshot that is not held."""
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(20)]
    live = SnapshotStore()
    previous_state = live.visible_state()
    for block in range(10):
        writes = {key: rng.randint(-9, 9) for key in rng.sample(keys, rng.randint(0, 6))}
        live.install_block_writes(block, writes)
        rebuilt = SnapshotStore.from_checkpoint(block - 1, previous_state, writes)
        for snapshot in (block, block - 1, block - 2):
            live_reader, rebuilt_reader = _reader(live, snapshot), _reader(rebuilt, snapshot)
            held = snapshot != block - 2
            assert (live_reader is not ContractError) == held
            assert (rebuilt_reader is not ContractError) == held
            if held:
                for key in [*keys, "never-written"]:
                    assert live_reader(key) == rebuilt_reader(key)
        previous_state = live.visible_state()


def test_written_checkpoint_and_log_line_are_canonical_json(tmp_path):
    """The encode-once writers produce exactly the canonical_json of the
    dicts that recovery parses."""
    store = SnapshotStore()
    store.install_block_writes(0, {"a": 1, "b": 2})
    store.install_block_writes(1, {"b": 3, "c": 4})
    engine_state = {"reaches_smaller": [7], "writers_of": {"b": [[7, "x"]]}}
    assert CheckpointManager(tmp_path, p=1).maybe_checkpoint(
        store, {"b": 3, "c": 4}, engine_state
    )
    body = {
        "block": 1,
        "base_state": {"a": 1, "b": 2},
        "last_writes": {"b": 3, "c": 4},
        "engine_state": engine_state,
    }
    checksum = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    text = (tmp_path / "checkpoint_00000001.json").read_text()
    assert text == canonical_json({"checksum": checksum, "body": body})

    txns = (
        Transaction(0, 0, (ReadStep("a"), UpdateStep("a", "add", -2))),
        Transaction(1, 0, (UpdateStep("b", "set", 5),)),
    )
    block = seal_block(0, txns, GENESIS_PREV_HASH)
    assert block_payload(0, block.txns_json) == canonical_json(
        {"id": 0, "txns": [t.to_obj() for t in txns]}
    ).encode()
    chain = ChainLog(tmp_path / "chain.log")
    chain.append_block(block)
    chain.close()
    assert (tmp_path / "chain.log").read_text() == canonical_json({
        "id": 0,
        "prev_hash": GENESIS_PREV_HASH,
        "hash": block.hash,
        "txns": [t.to_obj() for t in txns],
    }) + "\n"


# ---------------------------------------------------------------------------
# Hash chain


def _blocks(n, txns_per_block=2):
    programs = [
        (ReadStep(f"k{i % 5}"), UpdateStep(f"k{i % 7}", "add", i % 11 + 1))
        for i in range(n * txns_per_block)
    ]
    return make_blocks(programs, txns_per_block)


def test_genesis_prev_hash_is_zero_bytes():
    blocks = _blocks(1)
    assert blocks[0].prev_hash == GENESIS_PREV_HASH == "0" * 64


def test_append_checks_links():
    blocks = _blocks(3)
    chain = ChainLog()
    chain.append_block(blocks[0])
    with pytest.raises(ChainError):
        chain.append_block(blocks[2])  # wrong id
    bad = Block(
        id=1, txns=blocks[1].txns, prev_hash="ab" * 32, hash=blocks[1].hash
    )
    with pytest.raises(ChainError):
        chain.append_block(bad)


def test_every_block_keeps_the_encoding_of_its_own_txns(tmp_path):
    """However a block was made, txns_json is encode_txns(txns), and
    append_block refuses each block whose txns do not hash to its hash."""
    blocks = _blocks(3)
    path = tmp_path / "chain.log"
    chain = ChainLog(path)
    for block in blocks:
        chain.append_block(block)
    chain.close()
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"add",', '"add",1')  # operands 5, 6 become 15, 16
    path.write_text("\n".join(lines) + "\n")
    sealed = blocks[1]
    cases = [
        (sealed, True),
        (Block(id=1, txns=sealed.txns, prev_hash=sealed.prev_hash, hash=sealed.hash), True),
        (_read_log(path)[1].decode(), True),
        (tamper_block(sealed), False),
        (Block(id=1, txns=blocks[2].txns, prev_hash=sealed.prev_hash, hash=sealed.hash), False),
        (_read_log(path)[2].decode(), False),
    ]
    for block, matches in cases:
        assert block.txns_json == encode_txns(block.txns)
        chain = ChainLog()
        for earlier in blocks[: block.id]:
            chain.append_block(earlier)
        if matches:
            chain.append_block(block)
        else:
            with pytest.raises(ChainError, match="hash does not match"):
                chain.append_block(block)


def test_logged_chain_links_check_and_decode_roundtrip(tmp_path):
    """Every line a file-backed ChainLog writes passes the link check
    recover applies, and decodes to the block appended."""
    blocks = _blocks(20)
    path = tmp_path / "chain.log"
    chain = ChainLog(path)
    for block in blocks:
        chain.append_block(block)
    chain.close()
    lines = _read_log(path)
    prev_hash = GENESIS_PREV_HASH
    for position, line in enumerate(lines):
        assert _link_fault(line, position, prev_hash) is None
        prev_hash = line.hash
    assert [line.decode() for line in lines] == blocks


# ---------------------------------------------------------------------------
# Checkpoint / recovery


def _run_replica(tmp_path: Path, n_blocks: int, p: int = 10, seed: int = 5):
    spec = WorkloadSpec(kind="ycsb", keys=40, ops_per_txn=4, theta=0.4, seed=seed)
    programs = generate(spec, n_blocks * 5)
    blocks = make_blocks(programs, 5)
    config = RunConfig(replicas=1, engine="harmony", seed=seed)
    replica = Replica(0, config, data_dir=tmp_path)
    replica.checkpoints = CheckpointManager(tmp_path, p)
    for block in blocks:
        replica.receive(block)
    replica.close()
    return blocks, replica


def _harmony_builder(store, engine_state):
    engine = HarmonyEngine(store)
    engine.restore_state(engine_state)
    return engine


def test_recover_replays_from_latest_checkpoint(tmp_path):
    _, replica = _run_replica(tmp_path, 18, p=10)
    pre_crash = list(replica.state_hashes)
    recovered = recover(tmp_path, _harmony_builder)
    assert recovered.last_block == 17
    checkpoint = load_latest_checkpoint(tmp_path)
    assert checkpoint.block == 10
    assert set(recovered.state_hashes) == set(range(11, 18))
    for block_id, digest in recovered.state_hashes.items():
        assert digest == pre_crash[block_id]
    assert recovered.store.state_hash() == pre_crash[-1]


def test_replica_refuses_a_data_directory_whose_chain_log_holds_blocks(tmp_path):
    """A Replica starts at block 0. On the directory of one that ran blocks
    0-9 it would halt on block 10 or append a second block 0 that recover
    rejects, so it refuses the directory and leaves the log as it was."""
    _, replica = _run_replica(tmp_path, 10)
    log = tmp_path / "chain.log"
    before = log.read_bytes()
    with pytest.raises(ContractError, match="already holds blocks"):
        Replica(0, RunConfig(replicas=1), data_dir=tmp_path)
    assert log.read_bytes() == before
    assert recover(tmp_path, _harmony_builder).store.state_hash() == replica.state_hashes[-1]

    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "chain.log").touch()  # an empty log holds no blocks
    Replica(0, RunConfig(replicas=1), data_dir=empty).close()


def _three_block_log(path: Path) -> list[Block]:
    blocks = _blocks(3)
    chain = ChainLog(path)
    for block in blocks:
        chain.append_block(block)
    chain.close()
    return blocks


def test_chain_log_refuses_a_used_file_and_leaves_it_as_it_was(tmp_path):
    """A ChainLog starts at block 0, so a file that already holds bytes is
    refused and not written; an empty file is a log with no blocks."""
    path = tmp_path / "chain.log"
    blocks = _three_block_log(path)
    before = path.read_bytes()
    with pytest.raises(ContractError, match="already holds blocks; storage.recover reads them"):
        ChainLog(path)
    assert path.read_bytes() == before

    empty = tmp_path / "empty.log"
    empty.touch()
    chain = ChainLog(empty)
    chain.append_block(blocks[0])
    chain.close()
    assert [line.decode() for line in _read_log(empty)] == blocks[:1]


def test_recover_refuses_a_line_whose_block_id_is_not_its_position(tmp_path):
    """Blocks 0-2 and then block 0 again, as an append of block 0 to a used
    log would leave them (written as text, since ChainLog refuses that)."""
    path = tmp_path / "chain.log"
    _three_block_log(path)
    first = path.read_text().splitlines()[0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")
    with pytest.raises(RecoveryError, match="expected block 3, found block 0"):
        recover(tmp_path, _harmony_builder)


def test_recover_falls_back_when_checkpoint_interrupted(tmp_path):
    _, replica = _run_replica(tmp_path, 25, p=10)
    pre_crash = list(replica.state_hashes)
    newest = tmp_path / "checkpoint_00000020.json"
    newest.write_text(newest.read_text()[: 40])  # crash mid-write
    recovered = recover(tmp_path, _harmony_builder)
    assert min(recovered.state_hashes) == 11  # replay restarted after block 10
    assert recovered.store.state_hash() == pre_crash[-1]


_BODY_NOT_AN_OBJECT = '{"checksum":"%s","body":[1,2]}' % hashlib.sha256(b"[1,2]").hexdigest()


@pytest.mark.parametrize(
    "content", ["[1,2]", '"str"', _BODY_NOT_AN_OBJECT], ids=["list", "str", "body-list"]
)
def test_recover_falls_back_when_checkpoint_is_not_a_checkpoint(tmp_path, content):
    _, replica = _run_replica(tmp_path, 25, p=10)
    pre_crash = list(replica.state_hashes)
    (tmp_path / "checkpoint_00000020.json").write_text(content)
    assert load_latest_checkpoint(tmp_path).block == 10
    recovered = recover(tmp_path, _harmony_builder)
    assert min(recovered.state_hashes) == 11
    assert recovered.store.state_hash() == pre_crash[-1]


@pytest.mark.parametrize(
    "content", ["[1,2]", '{"checkpoint_block":null}'], ids=["list", "null-block"]
)
def test_recover_ignores_a_marker_that_names_no_checkpoint(tmp_path, content):
    _, replica = _run_replica(tmp_path, 25, p=10)
    pre_crash = list(replica.state_hashes)
    (tmp_path / "block_checkpoint_log.json").write_text(content)
    recovered = recover(tmp_path, _harmony_builder)
    assert min(recovered.state_hashes) == 21  # the newest file by name
    assert recovered.store.state_hash() == pre_crash[-1]


def test_recover_without_any_checkpoint_replays_from_genesis(tmp_path):
    _, replica = _run_replica(tmp_path, 6, p=10)
    pre_crash = list(replica.state_hashes)
    assert load_latest_checkpoint(tmp_path) is None
    recovered = recover(tmp_path, _harmony_builder)
    assert sorted(recovered.state_hashes) == list(range(6))
    assert recovered.store.state_hash() == pre_crash[-1]


def test_recover_rejects_truncated_log(tmp_path):
    _run_replica(tmp_path, 14, p=10)
    path = tmp_path / "chain.log"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:8]) + "\n")  # checkpoint 10, log ends at 7
    with pytest.raises(RecoveryError):
        recover(tmp_path, _harmony_builder)


def test_recover_rejects_corrupt_log_line(tmp_path):
    _run_replica(tmp_path, 4, p=10)
    path = tmp_path / "chain.log"
    text = path.read_text()
    path.write_text(text[:-20])  # torn final line
    with pytest.raises(ChainError):
        recover(tmp_path, _harmony_builder)


def _one_add_per_block_log(tmp_path: Path) -> list[str]:
    """14 blocks of one `add k<i> i+1` each, checkpoint at block 10."""
    programs = [(UpdateStep(f"k{i}", "add", i + 1),) for i in range(14)]
    replica = Replica(0, RunConfig(replicas=1), data_dir=tmp_path)
    for block in make_blocks(programs, 1):
        replica.receive(block)
    replica.close()
    return (tmp_path / "chain.log").read_text().splitlines()


def _rewrite_line(tmp_path: Path, lines: list[str], index: int, edit) -> None:
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, separators=(",", ":"))
    (tmp_path / "chain.log").write_text("\n".join(lines) + "\n")


def test_recover_rejects_tampered_payload_after_checkpoint(tmp_path):
    lines = _one_add_per_block_log(tmp_path)

    def set_operand(record):
        record["txns"][0]["steps"][0][3] = 999

    _rewrite_line(tmp_path, lines, 12, set_operand)
    with pytest.raises(RecoveryError, match="block 12"):
        recover(tmp_path, _harmony_builder)


def test_recover_rejects_broken_link_before_checkpoint(tmp_path):
    lines = _one_add_per_block_log(tmp_path)

    def break_link(record):
        record["prev_hash"] = "ff" + record["prev_hash"][2:]

    _rewrite_line(tmp_path, lines, 5, break_link)
    with pytest.raises(RecoveryError, match="block 5"):
        recover(tmp_path, _harmony_builder)


def test_recover_rejects_tampered_payload_before_checkpoint(tmp_path):
    """Blocks up to the checkpoint are not replayed, but their stored
    payloads are still checked against their hashes."""
    lines = _one_add_per_block_log(tmp_path)

    def set_operand(record):
        record["txns"][0]["steps"][0][3] = 999

    _rewrite_line(tmp_path, lines, 5, set_operand)
    with pytest.raises(RecoveryError, match="block 5"):
        recover(tmp_path, _harmony_builder)


def _log_without_checkpoint(tmp_path: Path, n_blocks: int) -> list[str]:
    chain = ChainLog(tmp_path / "chain.log")
    for block in _blocks(n_blocks):
        chain.append_block(block)
    chain.close()
    return (tmp_path / "chain.log").read_text().splitlines()


def test_recover_rejects_tampered_payload_without_checkpoint(tmp_path):
    lines = _log_without_checkpoint(tmp_path, 12)

    def rename_read_key(record):
        record["txns"][0]["steps"][0][1] = "kXX"

    _rewrite_line(tmp_path, lines, 7, rename_read_key)
    with pytest.raises(RecoveryError, match="block 7"):
        recover(tmp_path, _harmony_builder)


def test_recover_rejects_broken_link_without_checkpoint(tmp_path):
    lines = _log_without_checkpoint(tmp_path, 15)

    def break_link(record):
        record["prev_hash"] = "ff" + record["prev_hash"][2:]

    _rewrite_line(tmp_path, lines, 12, break_link)
    with pytest.raises(RecoveryError, match="block 12"):
        recover(tmp_path, _harmony_builder)


@pytest.mark.parametrize("cut", ["inside a step", "after a transaction"])
def test_recover_rejects_line_torn_inside_txns_before_checkpoint(tmp_path, cut):
    lines = _one_add_per_block_log(tmp_path)
    line = lines[5]
    if cut == "inside a step":
        lines[5] = line[: line.index('"add"')]
    else:  # the torn line still ends in "}"
        lines[5] = line[: -len("]}")]
        assert lines[5].endswith("}")
    (tmp_path / "chain.log").write_text("\n".join(lines) + "\n")
    with pytest.raises(ChainError, match="line 5"):
        recover(tmp_path, _harmony_builder)


_GOOD_STEP = ["update", "k", "add", 1]


def _txn(steps=(_GOOD_STEP,), tid=0, block=0) -> dict:
    return {"tid": tid, "block": block, "steps": list(steps)}


@pytest.mark.parametrize(
    "txns",
    [
        [_txn([["read"]])],
        [_txn([["read", 7]])],
        [_txn([["update", "k", "add"]])],
        [_txn([["update", "k", "add", "x"]])],
        [_txn([["update", "k", "add", True]])],
        [_txn([["update", "k", "div", 2]])],
        [_txn([["branch", "k", "approx", 1, 0]])],
        [_txn([["read", "k"], ["branch", "k", "ge", 1, -1]])],
        [_txn([5])],
        [_txn([["jump", "k"]])],
        [_txn(tid="0")],
        [_txn(block=0.5)],
        [_txn(tid=0), _txn(tid=2)],
    ],
    ids=[
        "read-no-key", "read-int-key", "update-no-operand", "update-str-operand",
        "update-bool-operand", "update-unknown-kind", "branch-unknown-cmp",
        "branch-negative-skip", "step-not-a-list", "unknown-tag", "str-tid",
        "float-block", "tids-not-contiguous",
    ],
)
def test_recover_rejects_malformed_transactions_under_a_matching_hash(tmp_path, txns):
    txns_json = canonical_json(txns)
    block_hash = compute_block_hash(GENESIS_PREV_HASH, block_payload(0, txns_json))
    head = canonical_json({"id": 0, "prev_hash": GENESIS_PREV_HASH, "hash": block_hash})
    (tmp_path / "chain.log").write_text(f'{head[:-1]},"txns":{txns_json}}}\n')
    with pytest.raises(
        ChainError, match=r"corrupt log line 0: (malformed step|tid |block 0 tids)"
    ):
        recover(tmp_path, _harmony_builder)


def _count_decoded_blocks(monkeypatch) -> list[int]:
    """Patch Transaction.from_obj to record the block of every decoded
    transaction."""
    decoded = []
    from_obj = Transaction.from_obj

    def counting(obj):
        decoded.append(obj["block"])
        return from_obj(obj)

    monkeypatch.setattr(Transaction, "from_obj", staticmethod(counting))
    return decoded


def test_recover_decodes_only_the_blocks_it_replays(tmp_path, monkeypatch):
    _, replica = _run_replica(tmp_path, 25, p=10)
    decoded = _count_decoded_blocks(monkeypatch)
    recovered = recover(tmp_path, _harmony_builder)
    assert sorted(set(decoded)) == [21, 22, 23, 24]
    assert len(decoded) == 4 * 5
    assert recovered.store.state_hash() == replica.state_hashes[-1]


def test_recover_without_checkpoint_decodes_every_block(tmp_path, monkeypatch):
    _run_replica(tmp_path, 6, p=10)
    decoded = _count_decoded_blocks(monkeypatch)
    recover(tmp_path, _harmony_builder)
    assert sorted(set(decoded)) == list(range(6))
    assert len(decoded) == 6 * 5


@pytest.mark.parametrize("p", [0, -1])
def test_checkpoint_period_below_one_is_refused(tmp_path, p):
    with pytest.raises(ContractError, match="checkpoint period must be positive"):
        CheckpointManager(tmp_path, p)


def test_checkpoint_preserves_previous_files(tmp_path):
    _run_replica(tmp_path, 25, p=10)
    assert (tmp_path / "checkpoint_00000010.json").exists()
    assert (tmp_path / "checkpoint_00000020.json").exists()
    assert all(
        path.name == "chain.log" or path.match("checkpoint_*.json")
        for path in tmp_path.iterdir()
    )


def test_recover_takes_the_newest_checkpoint_over_a_marker_naming_an_older_one(tmp_path):
    """A directory written when a marker file named the checkpoint to load:
    the marker names checkpoint 10, but checkpoint 20 is valid, so recovery
    starts from 20 and ignores the marker."""
    _, replica = _run_replica(tmp_path, 25, p=10)
    (tmp_path / "block_checkpoint_log.json").write_text('{"checkpoint_block":10}')
    assert load_latest_checkpoint(tmp_path).block == 20
    recovered = recover(tmp_path, _harmony_builder)
    assert min(recovered.state_hashes) == 21
    assert recovered.store.state_hash() == replica.state_hashes[-1]


def test_newest_checkpoint_is_chosen_by_block_number_not_by_name(tmp_path):
    """Names pad block ids to 8 digits, so checkpoint 100,000,000 sorts
    before checkpoint 99,999,990 by name; recovery still loads the newer."""
    store = SnapshotStore(start_block=99_999_979)
    manager = CheckpointManager(tmp_path, p=10)
    history = []
    for block in range(99_999_980, 100_000_001):
        history.append({f"k{block % 7}": block % 100})
        store.install_block_writes(block, history[-1])
        manager.maybe_checkpoint(store, history[-1], None)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "checkpoint_100000000.json",
        "checkpoint_99999990.json",
    ]
    checkpoint = load_latest_checkpoint(tmp_path)
    assert checkpoint.block == 100_000_000
    assert checkpoint.base_state == _state_at(history, len(history) - 2)
    assert checkpoint.last_writes == history[-1]


def test_checkpoint_keeps_only_the_two_newest(tmp_path):
    _run_replica(tmp_path, 45, p=10)
    assert sorted(p.name for p in tmp_path.glob("checkpoint_*.json")) == [
        "checkpoint_00000030.json",
        "checkpoint_00000040.json",
    ]


def test_replayed_log_reproduces_per_block_hashes(tmp_path):
    blocks, replica = _run_replica(tmp_path, 10, p=100)  # no checkpoint fires
    pre_crash = list(replica.state_hashes)
    recovered = recover(tmp_path, _harmony_builder)
    assert [recovered.state_hashes[i] for i in range(10)] == pre_crash


# ---------------------------------------------------------------------------
# Delta checkpoints


def _drive(directory: Path, n_blocks: int, p: int, skip=(), per_block=30, seed=0):
    """A store whose block 0 writes 2,000 keys and whose later blocks each
    write `per_block` random ones of them, with a CheckpointManager called
    after every block not in `skip`, as Replica calls it. Returns the
    store, each block's writes, and the kind of every checkpoint written."""
    rng = random.Random(seed)
    names = [f"k{i:05d}" for i in range(2000)]
    store = SnapshotStore()
    directory.mkdir(exist_ok=True)
    manager = CheckpointManager(directory, p=p)
    history, kinds = [], {}
    for block in range(n_blocks):
        if block == 0:
            writes = dict.fromkeys(names, 1)
        else:
            writes = {key: rng.randint(0, 99) for key in rng.sample(names, per_block)}
        store.install_block_writes(block, writes)
        history.append(writes)
        if block not in skip and manager.maybe_checkpoint(store, writes, {"tick": block}):
            kinds[block] = "delta" if "base" in _body(directory, block) else "full"
    return store, history, kinds


def _state_at(history: list[dict], block: int) -> dict:
    """The state after block `block` of a store whose first block is
    history[0], rebuilt from the writes alone."""
    state = {}
    for writes in history[: block + 1]:
        state.update(writes)
    return state


def _body(directory: Path, block: int) -> dict:
    return json.loads((directory / f"checkpoint_{block:08d}.json").read_text())["body"]


def test_delta_chain_loads_as_the_full_checkpoint_of_the_same_store(tmp_path):
    store, history, kinds = _drive(tmp_path / "chain", 41, p=10)
    assert kinds == {10: "full", 20: "delta", 30: "delta", 40: "delta"}
    assert len(_body(tmp_path / "chain", 40)["base_state"]) < 2000 // 2
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    assert CheckpointManager(full_dir, p=1).maybe_checkpoint(
        store, history[40], {"tick": 40}
    )
    assert "base" not in _body(full_dir, 40)
    rebuilt = load_latest_checkpoint(tmp_path / "chain")
    assert rebuilt == load_latest_checkpoint(full_dir)
    assert rebuilt.base_state == _state_at(history, 39)


def test_first_checkpoint_and_one_after_a_missed_block_are_full(tmp_path):
    """A manager writes a full checkpoint when it has none to extend: its
    first one (perfbench's archive writes a single checkpoint with p=1),
    and the first after a block it was not called for, since its record
    of the keys written since the last checkpoint misses that block."""
    _, _, kinds = _drive(tmp_path / "a", 61, p=10, skip={35})
    assert kinds == {10: "full", 20: "delta", 30: "delta", 40: "full", 50: "delta", 60: "delta"}
    _, _, kinds = _drive(tmp_path / "b", 31, p=10, skip=range(25))
    assert kinds == {30: "full"}
    _, _, kinds = _drive(tmp_path / "c", 5, p=1, skip=range(4))
    assert kinds == {4: "full"}


def test_deltas_give_way_to_a_full_checkpoint_past_half_its_keys(tmp_path):
    """A delta holds the keys written since the checkpoint it extends; once
    the deltas since the last full checkpoint would hold more keys than
    half of it (2,000 keys), a full checkpoint is written instead."""
    _, history, kinds = _drive(tmp_path, 140, p=10)
    assert kinds.pop(10) == "full"
    held = 0
    for block, kind in kinds.items():
        held += len({key for writes in history[block - 10 : block] for key in writes})
        assert kind == ("full" if 2 * held > 2000 else "delta")
        if kind == "full":
            held = 0
    assert list(kinds.values()).count("full") >= 2


def test_full_checkpoint_keeps_only_the_previous_full_and_newer_files(tmp_path):
    """Once a full checkpoint is durable, the previous full one stays as
    its fallback, and every older file and every delta between the two
    is deleted; deltas after the newest full one stay."""
    _, _, kinds = _drive(tmp_path, 151, p=10)
    fulls = [block for block, kind in kinds.items() if kind == "full"]
    assert len(fulls) >= 3
    expected = {fulls[-2], fulls[-1]} | {b for b in kinds if b > fulls[-1]}
    assert any(kinds[b] == "delta" for b in expected)
    on_disk = {int(p.stem[len("checkpoint_"):]) for p in tmp_path.glob("checkpoint_*.json")}
    assert on_disk == expected


def test_delta_chain_is_bounded_by_its_length(tmp_path):
    """Empty blocks add no key to a delta, so only MAX_DELTAS bounds the
    chain: a 2,000-key store followed by 1,000 empty blocks, checkpointed
    after every block, writes a full checkpoint after every MAX_DELTAS
    deltas and keeps at most those deltas and two full checkpoints."""
    _, history, kinds = _drive(tmp_path, 1001, p=1, per_block=0)
    fulls = [block for block, kind in kinds.items() if kind == "full"]
    assert fulls == list(range(1, 1001, MAX_DELTAS + 1))
    assert len(list(tmp_path.glob("checkpoint_*.json"))) <= MAX_DELTAS + 2
    checkpoint = load_latest_checkpoint(tmp_path)
    assert checkpoint.block == 1000
    assert checkpoint.base_state == _state_at(history, 999)


def test_delta_lists_changed_keys_in_first_write_order(tmp_path):
    store = SnapshotStore()
    manager = CheckpointManager(tmp_path, p=3)
    names = [f"k{i:05d}" for i in range(2000)]
    blocks = [
        dict.fromkeys(names, 1),
        {},
        {"k00009": 2},
        {"k01500": 3, "k00003": 4},  # block 3: full; these start the delta's keys
        {"k00003": 5, "k00700": 6, "k00001": 7},
        {"k00002": 8, "k01500": 9},
        {"k00004": 10},  # block 6 itself: in last_writes only
    ]
    for block, writes in enumerate(blocks):
        store.install_block_writes(block, writes)
        manager.maybe_checkpoint(store, writes, None)
    body = _body(tmp_path, 6)
    assert body["base"][0] == 3
    assert list(body["base_state"]) == ["k01500", "k00003", "k00700", "k00001", "k00002"]
    assert body["base_state"] == {key: store.reader(5)(key) for key in body["base_state"]}
    assert body["last_writes"] == {"k00004": 10}
    text = (tmp_path / "checkpoint_00000006.json").read_text()
    assert text.index('"k01500"') < text.index('"k00003"') < text.index('"k00001"')


def _delta_replica(
    directory: Path, n_blocks: int, p=10, seed=3, keys=2000, inter_block=False
):
    """A file-backed replica whose block 0 sets every one of `keys` YCSB
    keys and whose blocks of 5 transactions touch few of them, so most of
    its checkpoints are deltas."""
    preload = tuple(UpdateStep(f"k{i:05d}", "set", i) for i in range(keys))
    spec = WorkloadSpec(kind="ycsb", keys=keys, ops_per_txn=4, theta=0.6, seed=seed)
    blocks = make_blocks([preload] + generate(spec, n_blocks * 5 - 1), 5)
    config = RunConfig(replicas=1, inter_block=inter_block)
    replica = Replica(0, config, data_dir=directory)
    replica.checkpoints = CheckpointManager(directory, p)
    for block in blocks:
        replica.receive(block)
    replica.close()
    return replica


def _builder(inter_block: bool):
    def build(store, engine_state):
        engine = HarmonyEngine(store, inter_block=inter_block)
        engine.restore_state(engine_state)
        return engine

    return build


def _assert_replays_after(directory: Path, replica, block: int) -> None:
    assert load_latest_checkpoint(directory).block == block
    recovered = recover(directory, _harmony_builder)
    last = replica.store.last_committed_block
    assert sorted(recovered.state_hashes) == list(range(block + 1, last + 1))
    for block_id, digest in recovered.state_hashes.items():
        assert digest == replica.state_hashes[block_id]


def test_torn_newest_delta_falls_back_to_the_previous_delta(tmp_path):
    replica = _delta_replica(tmp_path, 44)
    assert "base" in _body(tmp_path, 40) and "base" in _body(tmp_path, 30)
    newest = tmp_path / "checkpoint_00000040.json"
    newest.write_text(newest.read_text()[:-40])  # crash mid-write
    _assert_replays_after(tmp_path, replica, 30)


@pytest.mark.parametrize("fault", ["missing", "mismatch"])
def test_delta_with_a_broken_base_link_is_rejected(tmp_path, fault):
    """The newest delta extends block 30. Without that file, or with a
    file there whose checksum is not the one the link names, the delta is
    rejected and the next older checkpoint whose chain holds is used."""
    replica = _delta_replica(tmp_path, 44)
    assert _body(tmp_path, 40)["base"][0] == 30
    base = tmp_path / "checkpoint_00000030.json"
    if fault == "missing":
        base.unlink()
        _assert_replays_after(tmp_path, replica, 20)
    else:
        # the same checkpoint in other bytes: valid on its own, not the linked one
        encoded = json.dumps(_body(tmp_path, 30), indent=1)
        checksum = hashlib.sha256(encoded.encode()).hexdigest()
        base.write_text(f'{{"checksum":"{checksum}","body":{encoded}}}')
        _assert_replays_after(tmp_path, replica, 30)


@pytest.mark.parametrize("inter_block", [False, True], ids=["intra", "inter"])
def test_random_kill_and_recover_with_deltas(tmp_path, inter_block):
    """20 crashes at random points of runs over 1,000-2,000 keys; every
    third tears the newest checkpoint file. Recovery replays from the
    newest checkpoint whose chain holds and reproduces every state hash."""
    rng = random.Random(808 + inter_block)
    deltas = 0
    for trial in range(20):
        n_blocks = rng.randint(12, 60)
        trial_dir = tmp_path / f"trial{trial}"
        trial_dir.mkdir()
        replica = _delta_replica(
            trial_dir, n_blocks, p=rng.choice((3, 5, 10)), seed=rng.randrange(2**31),
            keys=rng.randint(1000, 2000), inter_block=inter_block,
        )
        files = sorted(trial_dir.glob("checkpoint_*.json"))
        deltas += sum('"base":[' in path.read_text() for path in files)
        torn = None
        if trial % 3 == 0 and files:
            torn = files[-1]
            text = torn.read_text()
            torn.write_text(text[: rng.randrange(len(text))])
        recovered = recover(trial_dir, _builder(inter_block))
        checkpoint = load_latest_checkpoint(trial_dir)
        start = checkpoint.block + 1 if checkpoint else 0
        if torn is not None:
            assert start <= int(torn.stem[len("checkpoint_"):])
        assert sorted(recovered.state_hashes) == list(range(start, n_blocks))
        for block_id, digest in recovered.state_hashes.items():
            assert digest == replica.state_hashes[block_id]
        assert recovered.store.state_hash() == replica.state_hashes[-1]
    assert deltas >= 40
