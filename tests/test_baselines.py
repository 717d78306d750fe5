import random

import pytest

from harmonydcc import engine as engine_module
from harmonydcc.baselines import AriaEngine, FabricEngine, SerialEngine
from harmonydcc.core import BranchStep, ContractError, ReadRecord, ReadStep, UpdateStep
from harmonydcc.engine import HarmonyEngine
from harmonydcc.oracle import build_graph, topo_order
from harmonydcc.storage import SnapshotStore

from test_engine import mk_blocks


def run_with(engine_cls, blocks):
    store = SnapshotStore()
    engine = engine_cls(store)
    return store, [engine.process_block(b) for b in blocks]


def test_fabric_disjoint_key_sets_commit():
    programs = [(ReadStep(f"r{i}"), UpdateStep(f"w{i}", "add", 1)) for i in range(6)]
    _, results = run_with(FabricEngine, mk_blocks([programs]))
    assert results[0].aborted == frozenset()


def test_fabric_aborts_on_single_stale_read():
    t1 = (UpdateStep("x", "set", 5),)
    t2 = (ReadStep("x"),)
    _, results = run_with(FabricEngine, mk_blocks([[t1, t2]], first_tid=1))
    assert results[0].aborted == frozenset({2})
    assert results[0].committed == frozenset({1})


def test_fabric_treats_arithmetic_update_as_read():
    # without the implied read the second add would silently lose an update
    t1 = (UpdateStep("x", "add", 1),)
    t2 = (UpdateStep("x", "add", 1),)
    store, results = run_with(FabricEngine, mk_blocks([[t1, t2]], first_tid=1))
    assert results[0].aborted == frozenset({2})
    assert store.reader(0)("x") == 1


def test_fabric_applies_committed_blind_writers_in_tid_order():
    # T3 read y before the aborted T1's write, so its min_out (1) is below
    # T2's (3); sorting by min_out would install T2's value instead
    t0 = (UpdateStep("z", "set", 1),)
    t1 = (ReadStep("z"), UpdateStep("y", "set", 5))
    t2 = (UpdateStep("x", "set", 10),)
    t3 = (ReadStep("y"), UpdateStep("x", "set", 20))
    blocks = mk_blocks([[t0, t1, t2, t3]])
    probe = FabricEngine(SnapshotStore())
    exec_ = probe.simulate(blocks[0], -1)
    probe.resolve_dependencies(exec_)
    assert exec_.min_out[3] < exec_.min_out[2]
    store, (result,) = run_with(FabricEngine, blocks)
    assert result.aborted == frozenset({1})
    assert result.applied_order["x"] == (2, 3)
    assert result.writes["x"] == 20
    assert store.reader(0)("x") == 20


def test_aria_ww_dependency_aborts_larger_tid():
    t1 = (UpdateStep("x", "set", 1),)
    t2 = (UpdateStep("x", "set", 2),)
    store, results = run_with(AriaEngine, mk_blocks([[t1, t2]], first_tid=1))
    assert results[0].aborted == frozenset({2})
    assert store.reader(0)("x") == 1


def test_aria_disjoint_writes_commit():
    programs = [(UpdateStep(f"w{i}", "add", 1),) for i in range(8)]
    _, results = run_with(AriaEngine, mk_blocks([programs]))
    assert results[0].aborted == frozenset()


def test_aria_rw_pair_rule():
    # T2 reads a key written by a surviving lower TID and is itself read
    t1 = (UpdateStep("x", "set", 7),)
    t2 = (ReadStep("x"), UpdateStep("y", "set", 1))
    t3 = (ReadStep("y"),)
    _, results = run_with(AriaEngine, mk_blocks([[t1, t2, t3]], first_tid=1))
    assert 2 in results[0].aborted
    # a lone stale read without an incoming edge survives
    t2b = (ReadStep("x"),)
    _, results = run_with(AriaEngine, mk_blocks([[t1, t2b]], first_tid=1))
    assert results[0].aborted == frozenset()


def test_serial_commits_everything_and_reads_live_state():
    t1 = (UpdateStep("x", "set", 10),)
    t2 = (
        ReadStep("x"),
        BranchStep("x", "ge", 10, 1),
        UpdateStep("x", "add", 5),
    )
    store, results = run_with(SerialEngine, mk_blocks([[t1, t2]], first_tid=1))
    assert results[0].aborted == frozenset()
    assert store.reader(0)("x") == 15  # T2 saw T1's write


def _random_blocks(seed, n_blocks=10, block_size=8, keys=6):
    rng = random.Random(seed)
    per_block = []
    for _ in range(n_blocks):
        programs = []
        for _ in range(block_size):
            steps = []
            for _ in range(rng.randint(1, 4)):
                key = f"k{rng.randrange(keys)}"
                roll = rng.random()
                if roll < 0.5:
                    steps.append(ReadStep(key))
                elif roll < 0.9:
                    steps.append(UpdateStep(key, "add", rng.randint(1, 5)))
                else:
                    steps.append(UpdateStep(key, "set", rng.randint(0, 9)))
            programs.append(tuple(steps))
        per_block.append(programs)
    return mk_blocks(per_block)


def test_baseline_survivors_pass_acyclicity():
    for engine_cls in (FabricEngine, AriaEngine):
        blocks = _random_blocks(23)
        _, results = run_with(engine_cls, blocks)
        for result in results:
            assert topo_order(build_graph(result)) is not None


def test_baselines_are_deterministic():
    blocks = _random_blocks(31)
    for engine_cls in (FabricEngine, AriaEngine, SerialEngine):
        _, first = run_with(engine_cls, blocks)
        _, second = run_with(engine_cls, blocks)
        assert [(r.committed, r.writes) for r in first] == [
            (r.committed, r.writes) for r in second
        ]


def test_baselines_simulate_through_the_engine_path():
    seed = tuple(UpdateStep(k, "set", v) for k, v in zip("abcde", (1, 2, 3, 4, 5)))
    t1 = (UpdateStep("a", "add", 1),)
    t2 = (
        ReadStep("a"),  # program read of T1's key
        UpdateStep("b", "add", 1),  # input-consuming, b not read
        UpdateStep("c", "set", 7),  # blind, c not read
        UpdateStep("e", "mul", 2),  # input-consuming, e not read
        UpdateStep("d", "add", 2),
        ReadStep("d"),  # own read after the update
    )
    t3 = (ReadStep("b"),)
    blocks = mk_blocks([[seed], [t1, t2, t3]])
    _, (_, harmony) = run_with(HarmonyEngine, blocks)
    implied = {
        1: (ReadRecord("a", 1, False),),
        2: (ReadRecord("b", 2, False), ReadRecord("e", 5, False)),
        3: (),
    }
    assert harmony.structure_hits == frozenset({2})
    assert harmony.handler_calls == 2
    for engine_cls in (FabricEngine, AriaEngine):
        _, (_, result) = run_with(engine_cls, blocks)
        for tid, extra in implied.items():
            assert result.reads[tid] == harmony.reads[tid] + extra
        assert "c" not in {record.key for record in result.reads[2]}
        assert result.structure_hits == frozenset()
        assert result.handler_calls == 0


def test_only_harmony_resolves_dependencies(monkeypatch):
    """The baselines run the shared simulation and commit step and their own
    abort rule, never harmony's dependency analysis."""
    calls = []
    resolve = engine_module.resolve_rw_states

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(engine_module, "resolve_rw_states", counting)
    blocks = _random_blocks(77, n_blocks=20)
    for engine_cls in (FabricEngine, AriaEngine, SerialEngine):
        run_with(engine_cls, blocks)
        assert calls == [], engine_cls.__name__
    for inter_block in (False, True):
        run_with(lambda store: HarmonyEngine(store, inter_block=inter_block), blocks)
        assert len(calls) == len(blocks)
        calls.clear()


def test_baselines_refuse_recovered_engine_state():
    engine = FabricEngine(SnapshotStore())
    engine.restore_state(None)
    with pytest.raises(ContractError):
        engine.restore_state({"writers_of": {}, "reaches_smaller": []})


def test_harmony_commits_more_than_fabric_on_contended_workloads():
    blocks = _random_blocks(77, n_blocks=20)
    _, fabric_results = run_with(FabricEngine, blocks)
    store = SnapshotStore()
    harmony = HarmonyEngine(store)
    harmony_results = [harmony.process_block(b) for b in blocks]
    fabric_committed = sum(len(r.committed) for r in fabric_results)
    harmony_committed = sum(len(r.committed) for r in harmony_results)
    assert harmony_committed > fabric_committed


def test_harmony_abort_rate_below_aria_on_hotspot_blocks():
    programs = [(UpdateStep("hot", "add", 1), ReadStep(f"r{i}")) for i in range(25)]
    blocks = mk_blocks([programs])
    _, aria_results = run_with(AriaEngine, blocks)
    store = SnapshotStore()
    harmony = HarmonyEngine(store)
    harmony_result = harmony.process_block(blocks[0])
    assert len(harmony_result.aborted) < len(aria_results[0].aborted)
    assert len(aria_results[0].committed) == 1


def test_single_hot_key_aria_abort_bound():
    # with one hotspot key and fused updates only, the write/write rule
    # leaves exactly one committer per block
    from harmonydcc.pipeline import make_blocks, run_replicas, RunConfig
    from harmonydcc.workloads import WorkloadSpec, generate

    spec = WorkloadSpec(
        kind="hotspot",
        keys=100,
        ops_per_txn=4,
        seed=3,
        hotspot_prob=1.0,  # 1 % of 100 keys: a single hot key
    )
    blocks = make_blocks(generate(spec, 100), 25)
    outcome = run_replicas(blocks, RunConfig(replicas=1, engine="aria", seed=0))
    for result in outcome.results[0]:
        block_size = len(result.committed) + len(result.aborted)
        assert len(result.aborted) / block_size >= (block_size - 1) / block_size
        assert len(result.committed) == 1
