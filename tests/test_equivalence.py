"""Pinned behaviour of every engine configuration.

Each of the 63 configurations (seven engine settings x three workloads x
three skews) runs one fixed stream on one replica, and so does each engine
setting on one blind-write stream. A digest covers every BlockResult field
of every block plus the per-block state hash row, so a change to any commit
or abort decision, installed value, applied order, read record, command,
structure hit or handler count shows up here. A change that alters a
digest on purpose names the configuration and says why.
"""
import hashlib
import json
import random

import pytest

from harmonydcc.core import ReadStep, UpdateStep, canonical_json
from harmonydcc.engine import HarmonyEngine
from harmonydcc.pipeline import Replica, RunConfig, make_blocks, run_replicas
from harmonydcc.storage import recover
from harmonydcc.workloads import WorkloadSpec, generate

ENGINE_SETTINGS = {
    "harmony-intra": dict(engine="harmony"),
    "harmony-intra-no-optim": dict(engine="harmony", update_optim=False),
    "harmony-inter": dict(engine="harmony", inter_block=True),
    "harmony-inter-no-optim": dict(engine="harmony", inter_block=True, update_optim=False),
    "fabric": dict(engine="fabric"),
    "aria": dict(engine="aria"),
    "serial": dict(engine="serial"),
}
WORKLOADS = ("ycsb", "smallbank", "hotspot")
THETAS = (0.0, 0.6, 0.99)
TXNS = 500
KEYS = 300
BLOCK_SIZE = 25


def _blocks(workload: str, theta: float):
    # hotspot_prob is set for every kind: ycsb and smallbank ignore it
    spec = WorkloadSpec(
        kind=workload, keys=KEYS, ops_per_txn=6, theta=theta, hotspot_prob=0.1, seed=17
    )
    return make_blocks(generate(spec, TXNS), BLOCK_SIZE)


def _rendered_command(command, tid):
    """A primitive as (kind, operand, tid), a chain as the 1-list of its
    rendered parts: the command shapes the pinned documents were hashed with."""
    if len(command) == 1:
        return [[_rendered_command(part, tid) for part in command[0]]]
    _, kind, operand = command
    return (kind, operand, tid)


def _canonical_result(result) -> dict:
    return {
        "block_id": result.block_id,
        "snapshot": result.snapshot,
        "committed": sorted(result.committed),
        "aborted": sorted(result.aborted),
        "writes": sorted(result.writes.items()),
        "applied_order": sorted(result.applied_order.items()),
        "structure_hits": sorted(result.structure_hits),
        # each record as (key, snapshot, observed, own): the pinned
        # documents were hashed when every record carried its snapshot
        "reads": sorted(
            (tid, [(key, result.snapshot, *rest) for key, *rest in records])
            for tid, records in result.reads.items()
        ),
        "commands": sorted(
            (tid, sorted((key, _rendered_command(cmd, tid)) for key, cmd in cmds.items()))
            for tid, cmds in result.commands.items()
        ),
        "handler_calls": result.handler_calls,
    }


def _blind_write_blocks(txns=400, keys=8, seed=29):
    """Short random programs over a few keys, most of whose updates are
    blind sets, so many keys have several committed writers per block."""
    rng = random.Random(seed)
    programs = []
    for _ in range(txns):
        steps = []
        for _ in range(rng.randint(1, 4)):
            key = f"k{rng.randrange(keys)}"
            roll = rng.random()
            if roll < 0.25:
                steps.append(ReadStep(key))
            elif roll < 0.65:
                steps.append(UpdateStep(key, "set", rng.randint(-9, 9)))
            elif roll < 0.85:
                steps.append(UpdateStep(key, "add", rng.randint(1, 5)))
            else:
                steps.append(UpdateStep(key, "mul", rng.choice((-1, 2))))
        programs.append(tuple(steps))
    return make_blocks(programs, BLOCK_SIZE)


def stream_digest(setting: str, blocks) -> str:
    config = RunConfig(replicas=1, block_size=BLOCK_SIZE, **ENGINE_SETTINGS[setting])
    outcome = run_replicas(blocks, config)
    doc = {
        "results": [_canonical_result(r) for r in outcome.results[0]],
        "hashes": outcome.hash_matrix[0],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


EXPECTED = {
    "harmony-intra/ycsb/0": "f3b0c89f11b92c41",
    "harmony-intra/ycsb/0.6": "779d278b1d00bd3d",
    "harmony-intra/ycsb/0.99": "1c26612d951bb500",
    "harmony-intra/smallbank/0": "d2af5e3a38df8f7f",
    "harmony-intra/smallbank/0.6": "f012b6f081694a80",
    "harmony-intra/smallbank/0.99": "19a09dc273fcdf31",
    "harmony-intra/hotspot/0": "0cd2f478ab326c2a",
    "harmony-intra/hotspot/0.6": "581a1903e5eab445",
    "harmony-intra/hotspot/0.99": "4d3f0b5614d32c22",
    "harmony-intra-no-optim/ycsb/0": "0f7a59c980d75a70",
    "harmony-intra-no-optim/ycsb/0.6": "bfb58379fcf5237e",
    "harmony-intra-no-optim/ycsb/0.99": "9d21e322c3f76dcd",
    "harmony-intra-no-optim/smallbank/0": "502cd6622e3c7f55",
    "harmony-intra-no-optim/smallbank/0.6": "24907387661af058",
    "harmony-intra-no-optim/smallbank/0.99": "c0aeee4e4a205fe3",
    "harmony-intra-no-optim/hotspot/0": "7bc38f37bbbd2ce4",
    "harmony-intra-no-optim/hotspot/0.6": "25ea8707fcfb9522",
    "harmony-intra-no-optim/hotspot/0.99": "e05a295d59cbeff6",
    "harmony-inter/ycsb/0": "0be2e40f883a5576",
    "harmony-inter/ycsb/0.6": "eb8c97e7d32c7a16",
    "harmony-inter/ycsb/0.99": "28742759b76784d3",
    "harmony-inter/smallbank/0": "e20bc09936edb0c9",
    "harmony-inter/smallbank/0.6": "cfec39bbe5601852",
    "harmony-inter/smallbank/0.99": "7dec039c3877a5e7",
    "harmony-inter/hotspot/0": "fb5c0efe9f013029",
    "harmony-inter/hotspot/0.6": "0bbed3b233472d97",
    "harmony-inter/hotspot/0.99": "66cbdb81a969b614",
    "harmony-inter-no-optim/ycsb/0": "e0767c6b7ba66b34",
    "harmony-inter-no-optim/ycsb/0.6": "06a5496083c438f6",
    "harmony-inter-no-optim/ycsb/0.99": "20a1a6f946666ec7",
    "harmony-inter-no-optim/smallbank/0": "e318e64f1bb694d3",
    "harmony-inter-no-optim/smallbank/0.6": "a88c1c8e07391be1",
    "harmony-inter-no-optim/smallbank/0.99": "b6f0f914129bc4d1",
    "harmony-inter-no-optim/hotspot/0": "29d733af6629d692",
    "harmony-inter-no-optim/hotspot/0.6": "087d592b41f41b1a",
    "harmony-inter-no-optim/hotspot/0.99": "730544564c9aef23",
    "fabric/ycsb/0": "27350ec40eb1d4e1",
    "fabric/ycsb/0.6": "bf07e61ac0a28e45",
    "fabric/ycsb/0.99": "08634ce471f427be",
    "fabric/smallbank/0": "7f10bd5bb94f3ae8",
    "fabric/smallbank/0.6": "79a2556f5b0cbe9f",
    "fabric/smallbank/0.99": "c2d8f3d69374f3c0",
    "fabric/hotspot/0": "4b7d2a8101473a24",
    "fabric/hotspot/0.6": "312cf1af2d29358a",
    "fabric/hotspot/0.99": "62491412e3b9b262",
    "aria/ycsb/0": "c2f4f75c1bba185f",
    "aria/ycsb/0.6": "f151cc91a17a3396",
    "aria/ycsb/0.99": "6ac7d599ea7d2d47",
    "aria/smallbank/0": "160ff043fc0d10ca",
    "aria/smallbank/0.6": "427a05c83a662f1e",
    "aria/smallbank/0.99": "8abe7b73347e5318",
    "aria/hotspot/0": "e960ad35ee79d475",
    "aria/hotspot/0.6": "3e7fc6fd7987e27f",
    "aria/hotspot/0.99": "b2ad06bfb0da7189",
    "serial/ycsb/0": "d9b21cc20f4b73be",
    "serial/ycsb/0.6": "d39980b432f96709",
    "serial/ycsb/0.99": "7e972f0e995b209c",
    "serial/smallbank/0": "f6360d6c90be46e7",
    "serial/smallbank/0.6": "03d849342c773523",
    "serial/smallbank/0.99": "da139095e6b95fb5",
    "serial/hotspot/0": "c968de8ee9eb2f03",
    "serial/hotspot/0.6": "afec51895839c7ae",
    "serial/hotspot/0.99": "d640b1a3210b42b1",
    "harmony-intra/blind-write": "76fad11fd86d7c5b",
    "harmony-intra-no-optim/blind-write": "4e1457204a08d68f",
    "harmony-inter/blind-write": "e32b57a30c1c079e",
    "harmony-inter-no-optim/blind-write": "bd04b1debcca3d23",
    "fabric/blind-write": "509aef195a0b2b43",
    "aria/blind-write": "d6ad5326581aae8f",
    "serial/blind-write": "95d2031a4a272d42",
}


@pytest.mark.parametrize("setting", ENGINE_SETTINGS)
def test_engine_behaviour_matches_pinned_digests(setting):
    got = {
        f"{setting}/{workload}/{theta:g}": stream_digest(
            setting, _blocks(workload, theta)
        )
        for workload in WORKLOADS
        for theta in THETAS
    }
    got[f"{setting}/blind-write"] = stream_digest(setting, _blind_write_blocks())
    expected = {k: v for k, v in EXPECTED.items() if k.startswith(setting + "/")}
    assert got == expected


def test_delayed_replica_makespans_match_pinned_digest():
    """Event-clock makespans, as exact float.hex strings, of a three-replica
    run with delivery delays. Generated once; a change to how replicas are
    scheduled, to the occupancy model or to what a block writes changes
    this digest."""
    got = {}
    for setting in ("harmony-intra", "harmony-inter", "serial"):
        for workload in ("ycsb", "smallbank"):
            config = RunConfig(
                replicas=3,
                block_size=BLOCK_SIZE,
                delay_max=2.0,
                seed=7,
                **ENGINE_SETTINGS[setting],
            )
            outcome = run_replicas(_blocks(workload, 0.6), config)
            got[f"{setting}/{workload}"] = [m.hex() for m in outcome.makespans]
    doc = json.dumps(got, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest()[:16] == "ff7039421ca3bc91"


def _inter_builder(store, engine_state):
    engine = HarmonyEngine(store, inter_block=True)
    engine.restore_state(engine_state)
    return engine


def test_checkpoint_with_carryover_readers_still_recovers(tmp_path):
    """Checkpoints once stored the committed readers of the checkpointed
    block under engine_state["readers_of"]; nothing reads them, and a
    checkpoint that still carries them recovers to the original hashes."""
    blocks = _blocks("ycsb", 0.99)[:14]
    config = RunConfig(replicas=1, inter_block=True)
    replica = Replica(0, config, data_dir=tmp_path)
    for block in blocks:
        replica.receive(block)
    replica.close()

    # the old field: per key read in block 10, its committed readers
    result = replica.results[10]
    readers_of: dict[str, set[int]] = {}
    for tid, records in result.reads.items():
        for record in records:
            readers_of.setdefault(record.key, set()).add(tid)
    committed_readers = {
        key: sorted(tids & result.committed)
        for key, tids in readers_of.items()
        if tids & result.committed
    }
    assert committed_readers
    path = tmp_path / "checkpoint_00000010.json"
    body = json.loads(path.read_text())["body"]
    state = body["engine_state"]
    body["engine_state"] = {
        "writers_of": state["writers_of"],
        "readers_of": committed_readers,
        "reaches_smaller": state["reaches_smaller"],
    }
    encoded = canonical_json(body)
    checksum = hashlib.sha256(encoded.encode()).hexdigest()
    path.write_text(canonical_json({"checksum": checksum, "body": body}))

    recovered = recover(tmp_path, _inter_builder)
    assert sorted(recovered.state_hashes) == [11, 12, 13]
    for block_id, digest in recovered.state_hashes.items():
        assert digest == replica.state_hashes[block_id]


def _smallbank_checkpoint_digests(directory) -> dict[str, str]:
    """sha256 of every checkpoint file a file-backed Smallbank run writes,
    read right after it is written: 1,000 accounts, whose 2,000 keys one
    transaction of block 0 sets, then 1,774 transactions (theta 0.6) in
    blocks of 25, checkpoint every 10 blocks. A checkpoint interval writes
    a few hundred keys, so the full checkpoint at block 10 is followed by
    deltas, and by a full one when they would pass half its keys."""
    accounts = 1000
    preload = tuple(
        UpdateStep(f"{kind}:{account:05d}", "set", 100)
        for account in range(accounts)
        for kind in ("c", "s")
    )
    spec = WorkloadSpec(kind="smallbank", keys=accounts, theta=0.6, seed=17)
    blocks = make_blocks([preload] + generate(spec, 71 * BLOCK_SIZE - 1), BLOCK_SIZE)
    replica = Replica(0, RunConfig(replicas=1, block_size=BLOCK_SIZE), data_dir=directory)
    digests = {}
    for block in blocks:
        replica.receive(block)
        path = directory / f"checkpoint_{block.id:08d}.json"
        if block.id % 10 == 0 and path.exists():
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    replica.close()
    return digests


# Generated once from the run above. Blocks 10 and 50 are full checkpoints,
# byte-identical to those of the format before deltas existed; the others
# are deltas. A change to the checkpoint file format, to what a delta
# holds or to when a full checkpoint is written changes these digests;
# such a change names the files it alters and says why.
CHECKPOINT_FILES = {
    "checkpoint_00000010.json": "8b2538a388651bd0",
    "checkpoint_00000020.json": "397d2d98a6e89c60",
    "checkpoint_00000030.json": "240de3c916236abf",
    "checkpoint_00000040.json": "1240aab9b2b181bf",
    "checkpoint_00000050.json": "7232df215fb32bb5",
    "checkpoint_00000060.json": "28adc0a4d5ce8fdb",
    "checkpoint_00000070.json": "35e8ce03bac3dcac",
}


def test_checkpoint_files_match_pinned_digests(tmp_path):
    assert _smallbank_checkpoint_digests(tmp_path) == CHECKPOINT_FILES
