"""Brute-force correctness oracle.

Deliberately quadratic and unoptimized: it builds the dependency graph of a
processed block from first principles, once, as a successor map over the
committed TIDs. check_block replays the committed transactions serially in
the graph's topological order, with the executor the serial baseline runs
(`core.run_serially`), to confirm the engine installed an equivalent state;
false_aborts reads the same graph to count the aborts serializability did
not need. It exists to be obviously correct, not fast.
"""
from __future__ import annotations

import heapq

from .core import Block, Key, Tid, run_serially
from .engine import BlockReads, BlockResult
from .storage import SnapshotStore

Graph = dict[Tid, set[Tid]]  # each committed TID -> the TIDs it precedes serially


def build_graph(result: BlockResult) -> Graph:
    """Every ordering constraint among the committed transactions.

    A reader of a key precedes every other committed writer of that key,
    because simulation reads the block snapshot, the before-image of every
    write in the block. The writers of a key follow its applied update order.
    """
    graph: Graph = {tid: set() for tid in result.committed}
    for tid in result.committed:
        for record in result.reads.get(tid, ()):
            graph[tid].update(w for w in result.applied_order.get(record.key, ()) if w != tid)
    for order in result.applied_order.values():
        for i, earlier in enumerate(order):
            graph[earlier].update(order[i + 1 :])
    return graph


def topo_order(graph: Graph) -> list[Tid] | None:
    """Kahn's algorithm with ties broken by ascending TID; None on a cycle."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for dst in successors:
            indegree[dst] += 1
    ready = [node for node, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[Tid] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in graph[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order if len(order) == len(graph) else None


def false_aborts(result: BlockResult, graph: Graph) -> set[Tid]:
    """The aborted transactions whose abort was unnecessary: adding one back
    to the committed set, with its reads and some placement of its updates
    in the per-key applied orders, still admits an acyclic dependency graph.

    Only the direction-forced edges matter. The aborted transaction must
    precede every committed writer of a key it read, and follow every
    committed reader of a key it writes; write/write orientations are free.
    graph is build_graph's for this result, acyclic as check_block requires,
    so adding the transaction closes a cycle exactly when one of the writers
    it must precede reaches, in graph, one of the readers it must follow.
    This searches forward from those writers; it never copies the graph.
    """
    readers: dict[Key, set[Tid]] = {}
    for tid in result.committed:
        for record in result.reads.get(tid, ()):
            readers.setdefault(record.key, set()).add(tid)
    unnecessary: set[Tid] = set()
    for tid in result.aborted:
        follows = {r for key in result.commands.get(tid, ()) for r in readers.get(key, ())}
        seen = {w for r in result.reads.get(tid, ()) for w in result.applied_order.get(r.key, ())}
        stack = list(seen)
        while stack:
            for nxt in graph[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        if follows.isdisjoint(seen):
            unnecessary.add(tid)
    return unnecessary


def hit_rate(results) -> float:
    """Fraction of processed transactions that harmony's abort rule flags as
    the dangerous pattern; 0 for the baselines, which do not test for it."""
    hits = 0
    total = 0
    for result in results:
        hits += len(result.structure_hits)
        total += len(result.committed) + len(result.aborted)
    return hits / total if total else 0.0


def check_block(
    block: Block, result: BlockResult, store: SnapshotStore, graph: Graph
) -> list[str]:
    """Run the full oracle on one processed block; empty list when clean.
    graph is build_graph(result). The store must still hold the pre-block
    snapshot: it is at the block before, or at the block itself.

    The graph must be acyclic, and the committed transactions, replayed
    serially in its topological order against the pre-block snapshot, must
    install the engine's writes."""
    order = topo_order(graph)
    if order is None:
        return [f"block {block.id}: committed dependency graph has a cycle"]
    snapshot = block.id - 1
    txns = {t.tid: t for t in block.txns}
    _, overlay = run_serially((txns[tid] for tid in order), store.reader(snapshot))
    if overlay != result.writes:
        return [f"block {block.id}: installed state is not serially reachable"]
    return []


def check_serial_block(block: Block, result: BlockResult, store: SnapshotStore) -> list[str]:
    """check_block for a serial engine, whose reads see lower TIDs' writes, not
    a snapshot: a TID-order replay must give every recorded read and write."""
    executed, overlay = run_serially(block.txns, store.reader(block.id - 1))
    replayed = BlockReads({tid: tuple(reads) for tid, (reads, _) in executed.items()})
    if replayed != result.reads or overlay != result.writes:
        return [f"block {block.id}: a serial replay reads or writes other values"]
    return []
