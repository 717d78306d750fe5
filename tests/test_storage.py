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
    seal_block,
)
from harmonydcc.engine import EngineOptions, HarmonyEngine
from harmonydcc.pipeline import Replica, RunConfig, make_blocks
from harmonydcc.storage import (
    ChainError,
    ChainLog,
    CheckpointManager,
    RecoveryError,
    SnapshotStore,
    load_latest_checkpoint,
    recover,
)
from harmonydcc.workloads import WorkloadSpec, generate


def test_read_returns_latest_version_at_or_below_snapshot():
    store = SnapshotStore()
    store.install_block_writes(0, {})
    store.install_block_writes(1, {})
    store.install_block_writes(2, {})
    store.install_block_writes(3, {"k": 9})
    store.install_block_writes(4, {})
    store.install_block_writes(5, {})
    assert store.read("k", 5) == 9
    assert store.read("k", 2) is None


def test_read_above_materialized_block_is_contract_violation():
    store = SnapshotStore()
    with pytest.raises(ContractError):
        store.read("k", 0)


def test_install_order_enforced_and_versions_kept():
    store = SnapshotStore()
    store.install_block_writes(0, {})
    store.install_block_writes(1, {"a": 1})
    assert store.read("a", 0) is None
    assert store.read("a", 1) == 1
    with pytest.raises(ContractError):
        store.install_block_writes(3, {})


def test_empty_block_changes_hash_only_via_block_id():
    store = SnapshotStore()
    store.install_block_writes(0, {"a": 1})
    h0 = store.state_hash(0)
    store.install_block_writes(1, {})
    h1 = store.state_hash(1)
    assert store.last_committed_block == 1
    assert h0 != h1  # same pairs, different block id
    assert store.visible_state(0) == store.visible_state(1)


def test_state_hash_matches_across_identical_stores_and_detects_flips():
    a, b = SnapshotStore(), SnapshotStore()
    for s in (a, b):
        s.install_block_writes(0, {"x": 1, "y": 2})
    assert a.state_hash() == b.state_hash()
    c = SnapshotStore()
    c.install_block_writes(0, {"x": 1, "y": 3})
    assert a.state_hash() != c.state_hash()


def test_historical_state_hash_reconstruction():
    store = SnapshotStore()
    store.install_block_writes(0, {"x": 1})
    h0 = store.state_hash(0)
    store.install_block_writes(1, {"x": 5, "y": 7})
    assert store.state_hash(0) == h0
    assert store.state_hash(1) != h0


def _fresh_hash(state: dict, block: int) -> str:
    fresh = SnapshotStore(start_block=block - 1)
    fresh.install_block_writes(block, state)
    return fresh.state_hash(block)


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
            current = store.read(key, store.last_committed_block)
            if current is not None and rng.random() < 0.3:
                writes[key] = current  # rewrite of the same value
            else:
                writes[key] = rng.randint(-3, 3)
        return writes

    store = SnapshotStore()
    history = []
    for block in range(25):
        history.append(random_writes(store))
        store.install_block_writes(block, history[-1])
    base = 9
    rebuilt = SnapshotStore.from_checkpoint(
        base, store.visible_state(base), history[base + 1]
    )
    for block in range(base + 2, 25):
        rebuilt.install_block_writes(block, history[block])
    for replica in (store, rebuilt):
        for block in range(replica.first_block, 25):
            state = replica.visible_state(block)
            assert replica.state_hash(block) == _fresh_hash(state, block)
    for block in range(base, 25):
        assert rebuilt.state_hash(block) == store.state_hash(block)
        assert rebuilt.visible_state(block) == store.visible_state(block)
    assert store.state_hash(-1) == _fresh_hash({}, -1)


@pytest.mark.parametrize("base_state", [{"a": 1}, {}])
def test_recovered_store_rejects_reads_below_its_checkpoint(base_state):
    store = SnapshotStore.from_checkpoint(5, base_state, {})
    assert store.read("a", 5) == base_state.get("a") == store.read("a", 6)
    with pytest.raises(ContractError):
        store.read("a", 3)
    with pytest.raises(ContractError):
        store.visible_state(3)
    with pytest.raises(ContractError):
        store.state_hash(3)


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
    assert block_payload(0, txns) == canonical_json(
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


def test_verify_chain_clean_and_roundtrip(tmp_path):
    blocks = _blocks(20)
    path = tmp_path / "chain.log"
    chain = ChainLog(path)
    for block in blocks:
        chain.append_block(block)
    chain.close()
    assert chain.verify_chain() is None
    reloaded = ChainLog.load(path)
    assert reloaded.verify_chain() is None
    assert [b.hash for b in reloaded.blocks] == [b.hash for b in blocks]


def test_verify_chain_detects_payload_tamper(tmp_path):
    blocks = _blocks(12)
    path = tmp_path / "chain.log"
    chain = ChainLog(path)
    for block in blocks:
        chain.append_block(block)
    chain.close()
    lines = path.read_text().splitlines()
    record = json.loads(lines[7])
    record["txns"][0]["steps"][0][1] = "kXX"
    lines[7] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert ChainLog.load(path).verify_chain() == 7


def test_verify_chain_detects_prev_hash_tamper(tmp_path):
    blocks = _blocks(15)
    path = tmp_path / "chain.log"
    chain = ChainLog(path)
    for block in blocks:
        chain.append_block(block)
    chain.close()
    lines = path.read_text().splitlines()
    record = json.loads(lines[12])
    record["prev_hash"] = "ff" + record["prev_hash"][2:]
    lines[12] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert ChainLog.load(path).verify_chain() == 12


# ---------------------------------------------------------------------------
# Checkpoint / recovery


def _run_replica(tmp_path: Path, n_blocks: int, p: int = 10, seed: int = 5):
    spec = WorkloadSpec(kind="ycsb", keys=40, ops_per_txn=4, theta=0.4, seed=seed)
    programs = generate(spec, n_blocks * 5)
    blocks = make_blocks(programs, 5)
    config = RunConfig(replicas=1, engine="harmony", checkpoint_p=p, seed=seed)
    replica = Replica(0, config, data_dir=tmp_path)
    for block in blocks:
        replica.receive(block)
    replica.close()
    return blocks, replica


def _harmony_builder(store, engine_state):
    engine = HarmonyEngine(store, EngineOptions())
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


def test_recover_falls_back_when_checkpoint_interrupted(tmp_path):
    _, replica = _run_replica(tmp_path, 25, p=10)
    pre_crash = list(replica.state_hashes)
    newest = tmp_path / "checkpoint_00000020.json"
    newest.write_text(newest.read_text()[: 40])  # crash mid-write
    recovered = recover(tmp_path, _harmony_builder)
    assert min(recovered.state_hashes) == 11  # replay restarted after block 10
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
    replica = Replica(0, RunConfig(replicas=1, checkpoint_p=10), data_dir=tmp_path)
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


def test_checkpoint_preserves_previous_files(tmp_path):
    _run_replica(tmp_path, 25, p=10)
    assert (tmp_path / "checkpoint_00000010.json").exists()
    assert (tmp_path / "checkpoint_00000020.json").exists()
    marker = json.loads((tmp_path / "block_checkpoint_log.json").read_text())
    assert marker == {"checkpoint_block": 20}


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
