import pytest

from harmonydcc.core import ContractError, ReadStep, UpdateStep
from harmonydcc.pipeline import (
    Replica,
    RunConfig,
    SimulatedNetwork,
    build_engine,
    make_blocks,
    run_replicas,
    tamper_block,
)
from harmonydcc.storage import SnapshotStore
from harmonydcc.workloads import WorkloadSpec, generate


def _programs(n, keys=30, seed=2, theta=0.7):
    spec = WorkloadSpec(kind="ycsb", keys=keys, ops_per_txn=5, theta=theta, seed=seed)
    return generate(spec, n)


def test_make_blocks_assigns_tids_in_arrival_order():
    programs = [(ReadStep(f"k{i}"),) for i in range(30)]
    blocks = make_blocks(programs, 25)
    txns = [txn for block in blocks for txn in block.txns]
    assert [txn.tid for txn in txns] == list(range(30))
    assert [txn.steps for txn in txns] == programs


def test_blocks_cut_at_block_size_with_short_tail():
    blocks = make_blocks([(ReadStep("a"),)] * 60, 25)
    assert [len(b.txns) for b in blocks] == [25, 25, 10]
    assert [b.id for b in blocks] == [0, 1, 2]
    assert blocks[0].txns[0].tid == 0
    assert blocks[1].txns[0].tid == 25
    with pytest.raises(ContractError):
        make_blocks([(ReadStep("a"),)], 0)


def test_chain_links_are_sealed_by_the_sequencer():
    blocks = make_blocks(_programs(40), 10)
    assert blocks[0].prev_hash == "0" * 64
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.prev_hash == prev.hash


def test_network_is_fifo_and_deterministic():
    net = SimulatedNetwork(seed=7, delay_max=2.0)
    times_a = net.delivery_times(0, 50)
    times_b = net.delivery_times(0, 50)
    assert times_a == times_b
    assert all(t1 <= t2 for t1, t2 in zip(times_a, times_a[1:]))
    assert net.delivery_times(1, 50) != times_a  # per-replica streams differ


def test_zero_delay_replicas_agree():
    blocks = make_blocks(_programs(100), 10)
    outcome = run_replicas(blocks, RunConfig(replicas=4, delay_max=0.0, seed=3))
    assert outcome.rows_identical()
    assert len(outcome.hash_matrix[0]) == len(blocks)


@pytest.mark.parametrize("inter_block", [False, True])
def test_heavy_delays_do_not_change_state_hashes(inter_block):
    blocks = make_blocks(_programs(100), 10)
    base = run_replicas(
        blocks,
        RunConfig(replicas=1, delay_max=0.0, seed=0, inter_block=inter_block),
    )
    for seed in (1, 2, 3):
        delayed = run_replicas(
            blocks,
            RunConfig(replicas=4, delay_max=50.0, seed=seed, inter_block=inter_block),
        )
        assert delayed.rows_identical()
        assert delayed.hash_matrix[0] == base.hash_matrix[0]


def test_tampered_replica_halts_while_others_finish():
    blocks = make_blocks(_programs(60), 10)
    config = RunConfig(replicas=3, delay_max=0.0, seed=1)
    replicas = [Replica(rid, config) for rid in range(3)]
    for replica in replicas:
        for block in blocks:
            if replica.id == 1 and block.id == 3:
                block = tamper_block(block)
            replica.receive(block)
    assert [r.halted for r in replicas] == [False, True, False]
    # the tampered replica processed blocks 0..2, then stopped
    assert replicas[1].state_hashes == replicas[0].state_hashes[:3]
    assert replicas[0].state_hashes == replicas[2].state_hashes
    assert len(replicas[0].state_hashes) == len(blocks)


def test_tamper_block_breaks_payload_hash():
    blocks = make_blocks(_programs(10), 10)
    from harmonydcc.storage import ChainLog, ChainError

    chain = ChainLog()
    with pytest.raises(ChainError):
        chain.append_block(tamper_block(blocks[0]))


def test_inter_block_overlap_shortens_makespan():
    blocks = make_blocks(_programs(200, theta=0.0, keys=500), 25)
    off = run_replicas(blocks, RunConfig(replicas=1, seed=9, inter_block=False))
    on = run_replicas(blocks, RunConfig(replicas=1, seed=9, inter_block=True))
    assert on.makespans[0] < off.makespans[0]


def test_config_json_roundtrip(tmp_path):
    config = RunConfig(
        replicas=2,
        block_size=10,
        delay_max=1.5,
        seed=11,
        engine="aria",
        checkpoint_p=5,
    )
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert RunConfig.from_file(path) == config
    for text in (
        '{"bogus": 1}',
        '{"workers": 2}',
        "null",
        "[1]",
        '"x"',
        "{oops",
        '{"replicas": "two"}',
        '{"replicas": true}',
        '{"replicas": 2.0}',
        '{"delay_max": "1"}',
        '{"inter_block": 1}',
        '{"engine": null}',
    ):
        with pytest.raises(ContractError):
            RunConfig.from_json(text)
    # an integer is a valid float
    assert RunConfig.from_json('{"delay_max": 2}').delay_max == 2


def test_engine_factory_rejects_invalid_combinations():
    store = SnapshotStore()
    with pytest.raises(ContractError):
        build_engine("aria", store, RunConfig(engine="aria", inter_block=True))
    with pytest.raises(ContractError):
        build_engine("fabric", store, RunConfig(engine="fabric", update_optim=False))
    with pytest.raises(ContractError):
        build_engine("nosuch", store, RunConfig())


def test_engine_grid_runs_under_every_builtin_engine():
    blocks = make_blocks(_programs(50), 10)
    for engine in ("harmony", "fabric", "aria", "serial"):
        outcome = run_replicas(
            blocks, RunConfig(replicas=2, seed=6, engine=engine, delay_max=1.0)
        )
        assert outcome.rows_identical()
