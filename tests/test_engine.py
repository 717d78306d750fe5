import random

import pytest

from harmonydcc.core import (
    GENESIS_PREV_HASH,
    ContractError,
    ReadStep,
    Transaction,
    UpdateStep,
    seal_block,
)
from harmonydcc.engine import (
    NO_INCOMING,
    HarmonyEngine,
    resolve_rw_states,
    validate,
)
from harmonydcc.storage import SnapshotStore


def mk_blocks(per_block, first_tid=0):
    blocks = []
    prev = GENESIS_PREV_HASH
    tid = first_tid
    for bid, programs in enumerate(per_block):
        txns = []
        for steps in programs:
            txns.append(Transaction(tid, bid, tuple(steps)))
            tid += 1
        block = seal_block(bid, txns, prev)
        prev = block.hash
        blocks.append(block)
    return blocks


def run_chain(blocks, **options):
    store = SnapshotStore()
    engine = HarmonyEngine(store, **options)
    results = [engine.process_block(b) for b in blocks]
    return store, engine, results


# ---------------------------------------------------------------------------
# Dependency resolution (Algorithm-style accumulators)


def test_disjoint_block_keeps_initial_states():
    blocks = mk_blocks([[(UpdateStep("a", "add", 1),), (ReadStep("b"),)]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset()
    assert result.handler_calls == 0


def test_two_transaction_match_states():
    # T1 reads x / T2 writes x and T2 reads y / T1 writes y
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (ReadStep("y"), UpdateStep("x", "add", 1))
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    store = SnapshotStore()
    engine = HarmonyEngine(store)
    exec_ = engine.simulate(blocks[0], -1)
    engine.resolve_dependencies(exec_)
    assert (exec_.min_out[2], exec_.max_in[2]) == (1, 1)
    assert (exec_.min_out[1], exec_.max_in[1]) == (2, 2)


def test_resolution_matches_brute_force_on_random_blocks():
    rng = random.Random(11)
    keys = [f"k{i}" for i in range(4)]
    for _ in range(60):
        programs = []
        for _ in range(8):
            steps = []
            for _ in range(rng.randint(1, 4)):
                key = rng.choice(keys)
                if rng.random() < 0.5:
                    steps.append(ReadStep(key))
                else:
                    steps.append(UpdateStep(key, "add", 1))
            programs.append(tuple(steps))
        blocks = mk_blocks([programs], first_tid=1)
        store = SnapshotStore()
        engine = HarmonyEngine(store)
        exec_ = engine.simulate(blocks[0], -1)
        engine.resolve_dependencies(exec_)
        # independent re-derivation straight from the programs
        reads = {t.tid: {s.key for s in t.steps if isinstance(s, ReadStep)}
                 for t in blocks[0].txns}
        writes = {t.tid: {s.key for s in t.steps if isinstance(s, UpdateStep)}
                  for t in blocks[0].txns}
        pairs = 0
        for j in reads:
            expect_min, expect_max = j + 1, NO_INCOMING
            for i in writes:
                if i != j and reads[j] & writes[i]:
                    expect_min = min(expect_min, i)
            for k in reads:
                if k != j and reads[k] & writes[j]:
                    expect_max = max(expect_max, k)
            assert (exec_.min_out[j], exec_.max_in[j]) == (expect_min, expect_max)
        pairs = sum(
            len(readers) * len(writers) - len(set(readers) & set(writers))
            for key in set(exec_.readers_of) & set(exec_.writers_of)
            for readers, writers in [(exec_.readers_of[key], exec_.writers_of[key])]
        )
        assert exec_.handler_calls == pairs  # each rw pair touched exactly once


# ---------------------------------------------------------------------------
# Validation rule


def test_validate_initial_state_commits():
    assert not validate(5, 5 + 1, NO_INCOMING)


def test_two_transaction_match_aborts_exactly_t2():
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (ReadStep("y"), UpdateStep("x", "add", 1))
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset({2})
    assert result.committed == frozenset({1})


def test_chain_aborts_only_middle():
    t1 = (UpdateStep("a", "add", 1),)
    t2 = (ReadStep("a"), UpdateStep("b", "add", 1))
    t3 = (ReadStep("b"),)
    blocks = mk_blocks([[t1, t2, t3]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset({2})
    assert result.committed == frozenset({1, 3})


@pytest.mark.parametrize("inter_block", [False, True])
def test_commit_step_aborts_by_validate(monkeypatch, inter_block):
    # the rule the tests prove against enumeration is the one the engine runs
    from harmonydcc import engine as engine_module

    monkeypatch.setattr(engine_module, "validate", lambda tid, min_out, max_in: True)
    blocks = _random_stream(3, n_blocks=3)
    _, _, results = run_chain(blocks, inter_block=inter_block)
    for block, result in zip(blocks, results):
        assert result.committed == frozenset()
        assert result.aborted == frozenset(t.tid for t in block.txns)


def test_rule_matches_structure_enumeration_on_random_configs():
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(2, 12)
        tids = list(range(1, n + 1))
        keys = [f"k{i}" for i in range(rng.randint(1, 5))]
        readers_of = {k: sorted(rng.sample(tids, rng.randint(0, n))) for k in keys}
        writers_of = {k: sorted(rng.sample(tids, rng.randint(0, n))) for k in keys}
        writers_of = {k: v for k, v in writers_of.items() if v}
        min_out, max_in, _ = resolve_rw_states(tids, readers_of, writers_of)
        # explicit rw edge set: (reader j, writer i) sharing a key
        edges = set()
        for key, writers in writers_of.items():
            for j in readers_of.get(key, ()):
                for i in writers:
                    if i != j:
                        edges.add((j, i))
        for j in tids:
            enumerated = any(
                i < j and i <= k
                for (jj, i) in edges
                if jj == j
                for (k, jjj) in edges
                if jjj == j
            )
            assert validate(j, min_out[j], max_in[j]) == enumerated


def test_surviving_min_out_order_is_topological():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(2, 12)
        tids = list(range(1, n + 1))
        keys = [f"k{i}" for i in range(rng.randint(1, 5))]
        readers_of = {k: sorted(rng.sample(tids, rng.randint(0, n))) for k in keys}
        writers_of = {k: sorted(rng.sample(tids, rng.randint(0, n))) for k in keys}
        min_out, max_in, _ = resolve_rw_states(tids, readers_of, writers_of)
        survivors = [t for t in tids if not validate(t, min_out[t], max_in[t])]
        position = {
            t: idx
            for idx, t in enumerate(
                sorted(survivors, key=lambda t: (min_out[t], t))
            )
        }
        for key, writers in writers_of.items():
            for reader in readers_of.get(key, ()):
                for writer in writers:
                    if (
                        reader != writer
                        and reader in position
                        and writer in position
                    ):
                        assert position[reader] < position[writer]


# ---------------------------------------------------------------------------
# Simulation corner cases


def test_repeat_updates_reserve_one_command_per_txn():
    steps = (UpdateStep("x", "add", 1), UpdateStep("x", "add", 2))
    blocks = mk_blocks([[steps]], first_tid=1)
    store = SnapshotStore()
    engine = HarmonyEngine(store)
    exec_ = engine.simulate(blocks[0], -1)
    assert exec_.writers_of["x"] == [1]
    engine.resolve_dependencies(exec_)
    result = engine.process_block(blocks[0])
    assert result.writes == {"x": 3}


def test_own_read_recorded_and_served_from_pending_commands():
    seed = (UpdateStep("x", "set", 10),)
    rmw = (UpdateStep("x", "add", 10), ReadStep("x"))
    blocks = mk_blocks([[seed], [rmw]])
    _, _, results = run_chain(blocks)
    record = results[1].reads[1][0]
    assert (record.key, record.observed, record.own_read) == ("x", 20, True)


# ---------------------------------------------------------------------------
# Update reordering and coalescence


def test_reorder_example_yields_40_with_both_committed():
    seed = (UpdateStep("x", "set", 10),)
    t1 = (UpdateStep("y", "add", 1), UpdateStep("x", "add", 10))
    t2 = (ReadStep("y"), UpdateStep("x", "mul", 3))
    blocks = mk_blocks([[seed], [t1, t2]])
    store, _, results = run_chain(blocks)
    assert results[1].aborted == frozenset()
    assert results[1].applied_order["x"] == (2, 1)  # mul evaluated first
    assert store.reader(1)("x") == 40


def test_no_edges_orders_by_tid_and_both_commit():
    seed = (UpdateStep("x", "set", 10),)
    t1 = (UpdateStep("x", "add", 10),)
    t2 = (UpdateStep("x", "mul", 3),)
    blocks = mk_blocks([[seed], [t1, t2]])
    store, _, results = run_chain(blocks)
    assert results[1].aborted == frozenset()  # no abort despite the ww overlap
    assert results[1].applied_order["x"] == (1, 2)
    assert store.reader(1)("x") == 60


def test_update_reorder_figure_sorts_x_updaters():
    t1 = (ReadStep("b"), UpdateStep("a", "add", 1))
    t2 = (ReadStep("c"), UpdateStep("b", "add", 1), UpdateStep("x", "mul", 2))
    t3 = (UpdateStep("c", "add", 1),)
    t4 = (ReadStep("a"), UpdateStep("x", "add", 5))
    blocks = mk_blocks([[t1, t2, t3, t4]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset()
    assert result.applied_order["x"] == (4, 2)


def test_key_whose_lone_writer_aborts_is_not_written():
    # T2 is the middle of T1 <-rw- T2 <-rw- T3 and the only writer of "b"
    t1 = (ReadStep("a"), UpdateStep("c", "add", 1))
    t2 = (ReadStep("c"), UpdateStep("a", "add", 1), UpdateStep("b", "set", 7))
    t3 = (ReadStep("a"),)
    blocks = mk_blocks([[t1, t2, t3]], first_tid=1)
    store, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset({2})
    assert "b" not in result.writes and "b" not in result.applied_order
    assert store.reader(0)("b") is None


@pytest.mark.parametrize("kind, operand", [("add", 5), ("mul", 3), ("set", -4)])
def test_lone_writer_value_and_order_do_not_depend_on_update_optim(kind, operand):
    seed = (UpdateStep("x", "set", 10),)
    lone = (ReadStep("y"), UpdateStep("x", kind, operand), UpdateStep("x", "add", 1))
    other = (UpdateStep("y", "add", 2),)
    blocks = mk_blocks([[seed], [lone, other]])
    outcomes = []
    for update_optim in (True, False):
        _, _, results = run_chain(blocks, update_optim=update_optim)
        assert results[1].committed == frozenset({1, 2})
        outcomes.append((results[1].writes["x"], results[1].applied_order["x"]))
    expected = {"add": 16, "mul": 31, "set": -3}[kind]
    assert outcomes == [(expected, (1,)), (expected, (1,))]


# ---------------------------------------------------------------------------
# Whole blocks


def test_disjoint_key_sets_all_commit():
    programs = [
        (ReadStep(f"r{i}"), UpdateStep(f"w{i}", "add", 1)) for i in range(10)
    ]
    blocks = mk_blocks([programs])
    _, _, (result,) = run_chain(blocks)
    assert len(result.committed) == 10


@pytest.mark.parametrize("n", [10, 100])
def test_hotspot_blind_adders_all_commit_with_update_optim(n):
    programs = [(UpdateStep("hot", "add", 1),) for _ in range(n)]
    blocks = mk_blocks([programs])
    store, _, (result,) = run_chain(blocks)
    assert len(result.committed) == n
    assert store.reader(0)("hot") == n


def test_hotspot_blind_adders_single_commit_without_update_optim():
    programs = [(UpdateStep("hot", "add", 1),) for _ in range(50)]
    blocks = mk_blocks([programs])
    store, _, (result,) = run_chain(blocks, update_optim=False)
    assert len(result.committed) == 1
    assert store.reader(0)("hot") == 1


def test_out_of_order_commit_step_rejected():
    blocks = mk_blocks([[(ReadStep("a"),)], [(ReadStep("a"),)]])
    store = SnapshotStore()
    engine = HarmonyEngine(store)
    with pytest.raises(ContractError):
        engine.process_block(blocks[1])


def _random_stream(seed, n_blocks=12, block_size=8, keys=6):
    rng = random.Random(seed)
    per_block = []
    for _ in range(n_blocks):
        programs = []
        for _ in range(block_size):
            steps = []
            for _ in range(rng.randint(1, 4)):
                key = f"k{rng.randrange(keys)}"
                roll = rng.random()
                if roll < 0.45:
                    steps.append(ReadStep(key))
                elif roll < 0.9:
                    steps.append(UpdateStep(key, "add", rng.randint(1, 5)))
                else:
                    steps.append(UpdateStep(key, "set", rng.randint(0, 9)))
            programs.append(tuple(steps))
        per_block.append(programs)
    return mk_blocks(per_block)


def test_identical_streams_yield_identical_results_across_stores():
    blocks = _random_stream(3)
    outputs = []
    for _ in range(4):
        store = SnapshotStore()
        engine = HarmonyEngine(store)
        hashes, results = [], []
        for block in blocks:
            results.append(engine.process_block(block))
            hashes.append(store.state_hash())
        outputs.append((hashes, [(r.committed, r.aborted, r.writes) for r in results]))
    assert all(o == outputs[0] for o in outputs)


# ---------------------------------------------------------------------------
# Inter-block parallelism


def test_enhanced_validation_reduces_to_plain_rule_without_inter_deps():
    # keys are disjoint across blocks, so no inter-block dependencies arise
    rng = random.Random(5)
    per_block = []
    for b in range(4):
        programs = []
        for _ in range(6):
            steps = []
            for _ in range(rng.randint(1, 3)):
                key = f"b{b}k{rng.randrange(4)}"
                if rng.random() < 0.5:
                    steps.append(ReadStep(key))
                else:
                    steps.append(UpdateStep(key, "add", 1))
            programs.append(tuple(steps))
        per_block.append(programs)
    blocks = mk_blocks(per_block)
    _, _, plain = run_chain(blocks, inter_block=False)
    _, _, enhanced = run_chain(blocks, inter_block=True)
    assert [r.aborted for r in plain] == [r.aborted for r in enhanced]
    assert [r.committed for r in plain] == [r.committed for r in enhanced]


def test_inter_block_pattern_aborts_newest_transaction():
    filler = (UpdateStep("seed", "set", 1),)
    t1 = (UpdateStep("a", "add", 1),)
    t2 = (ReadStep("a"), UpdateStep("b", "add", 1))
    t3 = (ReadStep("b"), UpdateStep("c", "add", 1))
    blocks = mk_blocks([[filler], [t1, t2], [t3]])
    _, _, results = run_chain(blocks, inter_block=True)
    assert results[1].committed == frozenset({1, 2})  # the middle txn commits
    assert results[2].aborted == frozenset({3})
    assert results[2].structure_hits == frozenset({3})


def test_inter_block_snapshot_is_two_blocks_back():
    b0 = (UpdateStep("x", "set", 1),)
    b1 = (UpdateStep("x", "set", 2),)
    reader = (ReadStep("x"),)
    blocks = mk_blocks([[b0], [b1], [reader]])
    _, _, results = run_chain(blocks, inter_block=True)
    record = results[2].reads[2][0]
    assert results[2].snapshot == 0
    assert record.observed == 1  # block 1's write not yet visible


def test_inter_block_rmw_applies_on_previous_block_state():
    # simulation reads two blocks back, but updates evaluate on the state
    # left by the immediately preceding block
    b0 = (UpdateStep("x", "set", 10),)
    b1 = (UpdateStep("x", "add", 5),)
    b2 = (UpdateStep("x", "add", 1),)
    blocks = mk_blocks([[b0], [b1], [b2]])
    store, _, results = run_chain(blocks, inter_block=True)
    assert store.reader(1)("x") == 15
    assert store.reader(2)("x") == 16
    assert ("x" in results[2].writes)


def test_engine_state_roundtrip_resumes_inter_block_decisions():
    filler = (UpdateStep("seed", "set", 1),)
    t1 = (UpdateStep("a", "add", 1),)
    t2 = (ReadStep("a"), UpdateStep("b", "add", 1))
    t3 = (ReadStep("b"), UpdateStep("c", "add", 1))
    blocks = mk_blocks([[filler], [t1, t2], [t3]])
    store_a = SnapshotStore()
    engine_a = HarmonyEngine(store_a, inter_block=True)
    engine_a.process_block(blocks[0])
    state_0 = store_a.visible_state()
    result_1 = engine_a.process_block(blocks[1])
    exported = engine_a.export_state()
    # rebuild a second engine from the exported carryover, as recovery does
    store_b = SnapshotStore.from_checkpoint(0, state_0, dict(result_1.writes))
    assert store_b.state_hash() == store_a.state_hash()
    engine_b = HarmonyEngine(store_b, inter_block=True)
    engine_b.restore_state(exported)
    result_b = engine_b.process_block(blocks[2])
    assert result_b.aborted == frozenset({3})


def test_own_read_matches_serial_replay_observation():
    # the self-updating transaction also reads its key, which forces its
    # update ahead of the other writer; its own-read must equal what a
    # serial replay in the applied order would observe
    from harmonydcc.core import apply_command, execute_program
    from harmonydcc.oracle import build_graph, topo_order

    seed = (UpdateStep("x", "set", 7),)
    self_updater = (UpdateStep("x", "add", 3), ReadStep("x"))
    other_writer = (UpdateStep("x", "mul", 2),)
    blocks = mk_blocks([[seed], [self_updater, other_writer]])
    store, _, results = run_chain(blocks)
    result = results[1]
    assert result.committed == frozenset({1, 2})
    sim_read = result.reads[1][0]
    assert sim_read.own_read and sim_read.observed == 10

    order = topo_order(build_graph(result))
    overlay = {}
    replay_reads = {}
    txns = {t.tid: t for t in blocks[1].txns}
    for tid in order:
        def live(key, _overlay=overlay):
            return _overlay.get(key, store.reader(0)(key))
        raw, commands = execute_program(tid, txns[tid].steps, live)
        if tid == 1:
            replay_reads = dict(zip(raw[::3], raw[1::3]))
        for key in commands:
            overlay[key] = apply_command(commands[key], live(key))
    assert replay_reads["x"] == sim_read.observed


def test_block_result_reads_answer_like_a_dict_of_read_records():
    """BlockResult.reads answers every mapping question as the dict of
    ReadRecord tuples it replaces did, building fresh records each time."""
    import dataclasses

    from harmonydcc.core import ReadRecord
    from harmonydcc.oracle import build_graph

    seed = (UpdateStep("x", "set", 5), UpdateStep("y", "set", 2))
    reader = (ReadStep("x"), UpdateStep("x", "add", 1), ReadStep("x"))
    writer = (UpdateStep("y", "add", 1),)
    other = (ReadStep("y"), ReadStep("z"))
    blocks = mk_blocks([[seed], [reader, writer, other]])
    _, _, results = run_chain(blocks)
    result = results[1]
    reads = result.reads
    expected = {
        1: (ReadRecord("x", 5, False), ReadRecord("x", 6, True)),
        2: (),
        3: (ReadRecord("y", 2, False), ReadRecord("z", None, False)),
    }
    assert reads[1] == expected[1]
    assert reads.get(2, ()) == () and reads.get(99, ()) == ()
    assert list(reads.items()) == sorted(expected.items())
    assert list(reads) == [1, 2, 3] and len(reads) == 3
    assert 3 in reads and 99 not in reads
    assert dict(reads) == {**reads} == expected
    assert reads == expected and expected == reads
    assert reads[1] is not reads[1]  # built on access, never cached
    assert "ReadRecord(key='x', observed=6, own_read=True)" in repr(reads)
    with pytest.raises(KeyError):
        reads[99]

    first, second = reads[1]
    altered = first._replace(observed=first.observed + 1)
    assert altered == ReadRecord("x", 6, False)
    replaced = dataclasses.replace(result, reads={**reads, 1: (altered, second)})
    assert type(replaced.reads) is dict
    assert replaced.reads[1] == (altered, second) and replaced.reads[3] == expected[3]
    assert result.reads[1] == expected[1]  # the original is unchanged
    assert build_graph(replaced) == build_graph(result)
