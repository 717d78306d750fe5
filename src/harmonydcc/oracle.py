"""Brute-force correctness oracle.

Deliberately quadratic and unoptimized: it rebuilds the full dependency
graph of a processed block from first principles, checks it for cycles,
and replays the committed transactions serially in topological order, with
the executor the serial baseline runs (`core.run_serially`), to confirm the
engine installed an equivalent state. It exists to be obviously correct,
not fast.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import Block, Key, Tid, reads_input, run_serially
from .engine import BlockResult
from .storage import SnapshotStore

RW = "rw"
WW = "ww"
WR = "wr"

Edge = tuple[Tid, Tid, str]  # (src, dst, kind): src precedes dst serially


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset[Tid]
    edges: frozenset[Edge]


def build_graph(result: BlockResult) -> DependencyGraph:
    """Enumerate every dependency among the committed transactions.

    A reader of a key precedes (rw) every other committed writer of that
    key, because simulation reads the block snapshot, the before-image of
    every write in the block. Write/write and write/read edges follow the
    applied per-key update order; a command that consumes its input value
    takes a wr edge from every earlier-ordered writer of the same key.
    """
    committed = result.committed
    edges: set[Edge] = set()
    writers: dict[Key, tuple[Tid, ...]] = result.applied_order
    for tid in committed:
        seen: set[Key] = set()
        for record in result.reads.get(tid, ()):
            if record.key in seen:
                continue
            seen.add(record.key)
            for w in writers.get(record.key, ()):
                if w != tid:
                    edges.add((tid, w, RW))
    for key, order in writers.items():
        for i, earlier in enumerate(order):
            for later in order[i + 1 :]:
                edges.add((earlier, later, WW))
                if reads_input(result.commands[later][key]):
                    edges.add((earlier, later, WR))
    return DependencyGraph(nodes=frozenset(committed), edges=frozenset(edges))


def topo_order(graph: DependencyGraph) -> list[Tid] | None:
    """Kahn's algorithm with ties broken by ascending TID; None on a cycle."""
    indegree = {node: 0 for node in graph.nodes}
    successors: dict[Tid, set[Tid]] = {node: set() for node in graph.nodes}
    for src, dst, _ in graph.edges:
        if dst not in successors[src]:
            successors[src].add(dst)
            indegree[dst] += 1
    ready = [node for node, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[Tid] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(graph.nodes):
        return None
    return order


def is_acyclic(graph: DependencyGraph) -> bool:
    return topo_order(graph) is not None


def serial_equivalence(block: Block, result: BlockResult, store: SnapshotStore) -> bool:
    """Replay exactly the committed transactions, serially, in topological
    order, against the pre-block snapshot; true iff the replayed writes equal
    the engine's installed writes for the block."""
    order = topo_order(build_graph(result))
    if order is None:
        return False
    snapshot = block.id - 1
    txns = {t.tid: t for t in block.txns}
    _, overlay = run_serially(
        (txns[tid] for tid in order), lambda key: store.read(key, snapshot)
    )
    return overlay == result.writes


def false_abort(result: BlockResult, tid: Tid) -> bool:
    """True iff the abort was unnecessary: adding the transaction back to
    the committed set, with its reads and some placement of its updates in
    the per-key applied orders, still admits an acyclic dependency graph.

    Only the direction-forced edges matter. The aborted reader must precede
    every committed writer of a key it read, and every committed reader of a
    key it writes must precede it; write/write orientations are free, so a
    consistent placement exists exactly when the forced graph is acyclic.
    """
    if tid in result.committed:
        raise ValueError(f"T{tid} committed; false-abort applies to aborted txns")
    graph = build_graph(result)
    edges = set(graph.edges)
    for record in result.reads.get(tid, ()):
        for w in result.applied_order.get(record.key, ()):
            edges.add((tid, w, RW))
    write_keys = set(result.commands.get(tid, ()))
    for other in result.committed:
        for record in result.reads.get(other, ()):
            if record.key in write_keys:
                edges.add((other, tid, RW))
    candidate = DependencyGraph(
        nodes=graph.nodes | {tid}, edges=frozenset(edges)
    )
    return is_acyclic(candidate)


def hit_rate(results) -> float:
    """Fraction of processed transactions matching the dangerous pattern."""
    hits = 0
    total = 0
    for result in results:
        hits += len(result.structure_hits)
        total += len(result.committed) + len(result.aborted)
    return hits / total if total else 0.0


def check_block(block: Block, result: BlockResult, store: SnapshotStore) -> list[str]:
    """Run the full oracle on one processed block; empty list when clean.
    The store must still hold the pre-block snapshot: it is at the block
    before, or at the block itself."""
    problems: list[str] = []
    graph = build_graph(result)
    if not is_acyclic(graph):
        problems.append(f"block {block.id}: committed dependency graph has a cycle")
    elif not serial_equivalence(block, result, store):
        problems.append(f"block {block.id}: installed state is not serially reachable")
    return problems
