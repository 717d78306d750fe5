import random
from dataclasses import replace

from harmonydcc.core import ReadStep, UpdateStep
from harmonydcc.engine import EngineOptions, HarmonyEngine
from harmonydcc.oracle import (
    DependencyGraph,
    build_graph,
    check_block,
    false_aborts,
    hit_rate,
    is_acyclic,
    serial_equivalence,
    topo_order,
)
from harmonydcc.storage import SnapshotStore
from harmonydcc.workloads import WorkloadSpec, generate
from harmonydcc.pipeline import make_blocks

from test_engine import mk_blocks, run_chain


def test_single_committed_txn_has_empty_edge_set():
    blocks = mk_blocks([[(UpdateStep("x", "add", 1),)]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    graph = build_graph(result)
    assert graph.nodes == frozenset({1})
    assert graph.edges == frozenset()


def test_parallel_edges_from_reorder_stay_acyclic():
    # both txns update x; the rw edge forces T2's command first, so the
    # induced ww and wr edges all point the same way
    seed = (UpdateStep("x", "set", 10),)
    t1 = (UpdateStep("y", "add", 1), UpdateStep("x", "add", 10))
    t2 = (ReadStep("y"), UpdateStep("x", "mul", 3))
    blocks = mk_blocks([[seed], [t1, t2]])
    _, _, results = run_chain(blocks)
    graph = build_graph(results[1])
    assert (2, 1, "rw") in graph.edges
    assert (2, 1, "ww") in graph.edges
    assert (2, 1, "wr") in graph.edges
    assert all(edge[:2] == (2, 1) for edge in graph.edges)
    assert is_acyclic(graph)


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
        expected = set()
        read_keys = {
            t: {s.key for s in blocks[0].txns[t - 1].steps if isinstance(s, ReadStep)}
            for t in result.committed
        }
        from harmonydcc.core import reads_input

        for key, order in result.applied_order.items():
            for reader, keys in read_keys.items():
                if key in keys:
                    for w in order:
                        if w != reader:
                            expected.add((reader, w, "rw"))
            for i, a in enumerate(order):
                for b in order[i + 1 :]:
                    expected.add((a, b, "ww"))
                    if reads_input(result.commands[b][key]):
                        expected.add((a, b, "wr"))
        assert graph.edges == frozenset(expected)


def test_two_node_cycle_detected():
    graph = DependencyGraph(
        nodes=frozenset({1, 2}),
        edges=frozenset({(1, 2, "rw"), (2, 1, "rw")}),
    )
    assert not is_acyclic(graph)
    assert topo_order(graph) is None


def test_empty_graph_is_acyclic():
    graph = DependencyGraph(nodes=frozenset(), edges=frozenset())
    assert is_acyclic(graph)
    assert topo_order(graph) == []


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
    assert serial_equivalence(blocks[0], result, store)


def test_serial_equivalence_on_coalesced_hotspot():
    seed = (UpdateStep("hot", "set", 5),)
    programs = [[seed]] + [[(UpdateStep("hot", "add", 1),) for _ in range(100)]]
    blocks = mk_blocks(programs)
    store, _, results = run_chain(blocks)
    assert store.read("hot", 1) == 105
    assert serial_equivalence(blocks[1], results[1], store)


def test_serial_equivalence_detects_mutated_output():
    programs = [(UpdateStep("a", "add", 1),), (ReadStep("a"),)]
    blocks = mk_blocks([programs])
    store, _, (result,) = run_chain(blocks)
    result.writes["a"] = 999
    assert not serial_equivalence(blocks[0], result, store)


def test_false_abort_on_necessary_two_txn_cycle():
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (ReadStep("y"), UpdateStep("x", "add", 1))
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    _, _, (result,) = run_chain(blocks)
    assert result.aborted == frozenset({2})
    assert 2 not in false_aborts(result)  # the abort was required


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
    assert 3 in false_aborts(result)


def test_false_abort_on_aria_blind_second_writer():
    from harmonydcc.baselines import AriaEngine

    t1 = (UpdateStep("x", "set", 1),)
    t2 = (UpdateStep("x", "set", 2),)
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    store = SnapshotStore()
    result = AriaEngine(store).process_block(blocks[0])
    assert result.aborted == frozenset({2})
    assert 2 in false_aborts(result)


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
    engine = HarmonyEngine(store, EngineOptions())
    for block in blocks:
        # the store holds the block's pre-block snapshot only until the next one
        result = engine.process_block(block)
        assert check_block(block, result, store) == []


def test_check_block_reports_an_applied_order_against_an_rw_edge():
    # T1 read x before T2's write, so T1 precedes T2; applying T2's update of
    # y before T1's puts T2 first as well
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (UpdateStep("x", "add", 1), UpdateStep("y", "add", 1))
    blocks = mk_blocks([[t1, t2]], first_tid=1)
    store, _, (result,) = run_chain(blocks)
    assert result.applied_order["y"] == (1, 2)
    assert check_block(blocks[0], result, store) == []
    swapped = replace(result, applied_order={**result.applied_order, "y": (2, 1)})
    assert check_block(blocks[0], swapped, store) == [
        "block 0: committed dependency graph has a cycle"
    ]
