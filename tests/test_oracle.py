import random
from dataclasses import replace

import pytest

from harmonydcc.core import ReadStep, UpdateStep, apply_command, execute_program
from harmonydcc.engine import HarmonyEngine
from harmonydcc.oracle import build_graph, check_block, false_aborts, hit_rate, topo_order
from harmonydcc.storage import SnapshotStore
from harmonydcc.workloads import WorkloadSpec, generate
from harmonydcc.pipeline import RunConfig, make_blocks, run_replicas

from test_acceptance import _random_program
from test_engine import mk_blocks, run_chain


def test_single_committed_txn_has_empty_edge_set():
    blocks = mk_blocks([[(UpdateStep("x", "add", 1),)]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert build_graph(result) == {1: set()}


def test_parallel_edges_from_reorder_stay_acyclic():
    # both txns update x; the rw edge forces T2's command first, so the
    # applied order of x points the same way
    seed = (UpdateStep("x", "set", 10),)
    t1 = (UpdateStep("y", "add", 1), UpdateStep("x", "add", 10))
    t2 = (ReadStep("y"), UpdateStep("x", "mul", 3))
    blocks = mk_blocks([[seed], [t1, t2]])
    _, _, results = run_chain(blocks)
    graph = build_graph(results[1])
    assert results[1].applied_order["x"] == (2, 1)
    assert graph == {1: set(), 2: {1}}
    assert topo_order(graph) == [2, 1]


def test_graph_matches_independent_rederivation():
    rng = random.Random(19)
    for _ in range(40):
        programs = []
        for _ in range(10):
            steps = []
            for _ in range(rng.randint(1, 4)):
                key = f"k{rng.randrange(5)}"
                if rng.random() < 0.5:
                    steps.append(ReadStep(key))
                else:
                    steps.append(
                        UpdateStep(key, rng.choice(("add", "set")), rng.randint(1, 5))
                    )
            programs.append(tuple(steps))
        blocks = mk_blocks([programs], first_tid=1)
        _, _, (result,) = run_chain(blocks)
        graph = build_graph(result)
        # quadratic re-derivation straight from programs and applied orders
        expected = {t: set() for t in result.committed}
        read_keys = {
            t: {s.key for s in blocks[0].txns[t - 1].steps if isinstance(s, ReadStep)}
            for t in result.committed
        }
        for key, order in result.applied_order.items():
            for reader, keys in read_keys.items():
                if key in keys:
                    for w in order:
                        if w != reader:
                            expected[reader].add(w)
            for i, a in enumerate(order):
                for b in order[i + 1 :]:
                    expected[a].add(b)
        assert graph == expected


def test_two_node_cycle_detected():
    assert topo_order({1: {2}, 2: {1}}) is None


def test_empty_graph_is_acyclic():
    assert topo_order({}) == []


def test_reorder_figure_topological_order():
    t1 = (ReadStep("b"), UpdateStep("a", "add", 1))
    t2 = (ReadStep("c"), UpdateStep("b", "add", 1), UpdateStep("x", "mul", 2))
    t3 = (UpdateStep("c", "add", 1),)
    t4 = (ReadStep("a"), UpdateStep("x", "add", 5))
    blocks = mk_blocks([[t1, t2, t3, t4]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert topo_order(build_graph(result)) == [4, 1, 2, 3]


def test_serial_equivalence_on_disjoint_block():
    programs = [(UpdateStep(f"w{i}", "add", 1),) for i in range(8)]
    blocks = mk_blocks([programs])
    store, _, (result,) = run_chain(blocks)
    assert check_block(blocks[0], result, store, build_graph(result)) == []


def test_serial_equivalence_on_coalesced_hotspot():
    seed = (UpdateStep("hot", "set", 5),)
    programs = [[seed]] + [[(UpdateStep("hot", "add", 1),) for _ in range(100)]]
    blocks = mk_blocks(programs)
    store, _, results = run_chain(blocks)
    assert store.reader(1)("hot") == 105
    assert check_block(blocks[1], results[1], store, build_graph(results[1])) == []


def test_serial_equivalence_detects_mutated_output():
    programs = [(UpdateStep("a", "add", 1),), (ReadStep("a"),)]
    blocks = mk_blocks([programs])
    store, _, (result,) = run_chain(blocks)
    result.writes["a"] = 999
    assert check_block(blocks[0], result, store, build_graph(result)) == [
        "block 0: installed state is not serially reachable"
    ]


def test_false_abort_on_necessary_two_txn_cycle():
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (ReadStep("y"), UpdateStep("x", "add", 1))
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset({2})
    assert 2 not in false_aborts(result, build_graph(result))  # the abort was required


def test_false_abort_on_open_three_txn_pattern():
    # T3 sits between T1 and T4 with no closing edges, so aborting it was
    # unnecessary for serializability
    t1 = (UpdateStep("p", "set", 1),)
    t2 = (ReadStep("z"),)
    t3 = (ReadStep("p"), UpdateStep("q", "add", 1))
    t4 = (ReadStep("q"),)
    blocks = mk_blocks([[t1, t2, t3, t4]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset({3})
    assert 3 in false_aborts(result, build_graph(result))


def test_false_abort_on_aria_blind_second_writer():
    from harmonydcc.baselines import AriaEngine

    t1 = (UpdateStep("x", "set", 1),)
    t2 = (UpdateStep("x", "set", 2),)
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    store = SnapshotStore()
    result = AriaEngine(store).process_block(blocks[0])
    assert result.aborted == frozenset({2})
    assert 2 in false_aborts(result, build_graph(result))


def test_hit_rate_zero_on_conflict_free_stream():
    programs = [(UpdateStep(f"w{i}", "add", 1),) for i in range(30)]
    blocks = make_blocks(programs, 10)
    _, _, results = run_chain(blocks)
    assert hit_rate(results) == 0.0


def test_hit_rate_equals_abort_rate_without_other_abort_sources():
    spec = WorkloadSpec(kind="ycsb", keys=50, ops_per_txn=6, theta=0.9, seed=3)
    blocks = make_blocks(generate(spec, 200), 10)
    _, _, results = run_chain(blocks)
    aborted = sum(len(r.aborted) for r in results)
    hits = sum(len(r.structure_hits) for r in results)
    assert aborted == hits > 0


def test_check_block_clean_on_engine_output():
    spec = WorkloadSpec(kind="ycsb", keys=30, ops_per_txn=5, theta=0.8, seed=9)
    blocks = make_blocks(generate(spec, 120), 12)
    store = SnapshotStore()
    engine = HarmonyEngine(store)
    for block in blocks:
        # the store holds the block's pre-block snapshot only until the next one
        result = engine.process_block(block)
        assert check_block(block, result, store, build_graph(result)) == []


def test_check_block_reports_an_applied_order_against_an_rw_edge():
    # T1 read x before T2's write, so T1 precedes T2; applying T2's update of
    # y before T1's puts T2 first as well
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (UpdateStep("x", "add", 1), UpdateStep("y", "add", 1))
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    store, _, (result,) = run_chain(blocks)
    assert result.applied_order["y"] == (1, 2)
    assert check_block(blocks[0], result, store, build_graph(result)) == []
    swapped = replace(result, applied_order={**result.applied_order, "y": (2, 1)})
    assert check_block(blocks[0], swapped, store, build_graph(swapped)) == [
        "block 0: committed dependency graph has a cycle"
    ]


def _reference_false_aborts(result):
    """false_aborts as first defined: per aborted transaction, copy the
    graph, add the transaction's forced edges and test the copy for a cycle
    with Kahn's algorithm."""
    graph = build_graph(result)
    unnecessary = set()
    for tid in result.aborted:
        forced = {node: set(successors) for node, successors in graph.items()}
        forced[tid] = set()
        for record in result.reads.get(tid, ()):
            forced[tid].update(result.applied_order.get(record.key, ()))
        write_keys = set(result.commands.get(tid, ()))
        for other in result.committed:
            if any(record.key in write_keys for record in result.reads.get(other, ())):
                forced[other].add(tid)
        if topo_order(forced) is not None:
            unnecessary.add(tid)
    return unnecessary


@pytest.mark.parametrize(
    "engine", ["harmony", "harmony-no-update-optim", "fabric", "aria"]
)
def test_false_aborts_match_the_copy_and_sort_definition(engine):
    from harmonydcc.baselines import AriaEngine, FabricEngine

    rng = random.Random(f"false-aborts:{engine}")
    keys = [f"k{i}" for i in range(6)]

    def step():
        key = rng.choice(keys)
        if rng.random() < 0.5:
            return ReadStep(key)
        return UpdateStep(key, rng.choice(("add", "set", "mul")), rng.randint(0, 4))

    per_block = [
        [tuple(step() for _ in range(rng.randint(1, 5))) for _ in range(rng.randint(2, 14))]
        for _ in range(150)
    ]
    store = SnapshotStore()
    processor = {
        "harmony": lambda: HarmonyEngine(store),
        "harmony-no-update-optim": lambda: HarmonyEngine(store, update_optim=False),
        "fabric": lambda: FabricEngine(store),
        "aria": lambda: AriaEngine(store),
    }[engine]()
    necessary = unnecessary = 0
    for block in mk_blocks(per_block):
        result = processor.process_block(block)
        found = false_aborts(result, build_graph(result))
        assert found == _reference_false_aborts(result), f"block {block.id}"
        unnecessary += len(found)
        necessary += len(result.aborted) - len(found)
    assert necessary > 20 and unnecessary > 20


# ---------------------------------------------------------------------------
# Whole-history serializability


def _history_faults(blocks, results, serial: bool) -> list[str]:
    """A reference check of a whole run's committed history; empty when clean.

    One successor map over every committed TID of the run. Each key's
    versions are ordered by block, then by applied order, and each version
    follows the one before it. A committed read follows the last version
    installed at or before its result's snapshot, plus, when serial, the
    versions lower TIDs of its own block installed; it precedes the next
    version that is not its own. The map must be acyclic, and a replay from
    the empty state in its topological order, ties by TID, must give every
    block's installed value of every key it wrote and, when serial, every
    recorded read.
    """
    txns = {txn.tid: txn for block in blocks for txn in block.txns}
    block_of = {txn.tid: block.id for block in blocks for txn in block.txns}
    graph = {tid: set() for result in results for tid in result.committed}
    versions: dict[str, list[int]] = {}  # per key, its writers in version order
    for result in results:
        for key, applied in result.applied_order.items():
            versions.setdefault(key, []).extend(applied)
    for chain in versions.values():
        for earlier, later in zip(chain, chain[1:]):
            graph[earlier].add(later)
    for result in results:
        for tid in result.committed:
            for record in result.reads[tid]:
                chain = versions.get(record.key, [])
                seen = [
                    i for i, w in enumerate(chain)
                    if block_of[w] <= result.snapshot
                    or (serial and block_of[w] == result.block_id and w < tid)
                ]
                last = seen[-1] if seen else -1
                if seen:
                    graph[chain[last]].add(tid)
                following = next((w for w in chain[last + 1 :] if w != tid), None)
                if following is not None:
                    graph[tid].add(following)
    order = topo_order(graph)
    if order is None:
        return ["the committed history's dependency graph has a cycle"]
    state: dict[str, int] = {}
    after: dict[tuple[int, str], int] = {}  # (tid, key) -> the value tid left
    replayed_reads = {}
    for tid in order:
        reads, commands = execute_program(tid, txns[tid].steps, state.get)
        for key, command in commands.items():
            state[key] = after[tid, key] = apply_command(command, state.get(key))
        replayed_reads[tid] = reads
    faults = []
    for result in results:
        for key, applied in result.applied_order.items():
            if after[applied[-1], key] != result.writes[key]:
                faults.append(f"block {result.block_id}: the replay leaves {key} otherwise")
        if serial and any(
            [item for record in result.reads[tid] for item in record] != replayed_reads[tid]
            for tid in result.committed
        ):
            faults.append(f"block {result.block_id}: the replay reads other values")
    return faults


def _random_history(seed: int):
    """12 blocks of criterion 02's random programs."""
    rng = random.Random(f"history:{seed}")
    keyspace = [f"k{i}" for i in range(rng.randint(4, 24))]
    return mk_blocks(
        [
            [_random_program(rng, keyspace) for _ in range(rng.randint(2, 16))]
            for _ in range(12)
        ]
    )


@pytest.mark.parametrize(
    "settings",
    [
        dict(engine="harmony"),
        dict(engine="harmony", update_optim=False),
        pytest.param(
            dict(engine="harmony", inter_block=True),
            marks=pytest.mark.xfail(
                strict=True,
                reason="inter-block mode commits non-serializable histories (ROADMAP.md item 1)",
            ),
        ),
        dict(engine="fabric"),
        dict(engine="aria"),
        dict(engine="serial"),
    ],
    ids=["harmony", "harmony-no-update-optim", "harmony-inter", "fabric", "aria", "serial"],
)
def test_every_committed_history_is_serializable(settings):
    """100 random 12-block histories per setting, zero tolerance."""
    config = RunConfig(replicas=1, **settings)
    flagged = []
    for seed in range(100):
        blocks = _random_history(seed)
        results = run_replicas(blocks, config).results[0]
        if _history_faults(blocks, results, settings["engine"] == "serial"):
            flagged.append(seed)
    assert flagged == []
