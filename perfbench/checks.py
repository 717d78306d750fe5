"""Output checks kept apart from the engine.

The benchmark keeps its own model of the replica's state and, for every
processed block, derives a serial order of the committed transactions from
their read sets and the engine's per-key ``applied_order``: a reader of a
key goes before every other writer of that key in the block, and writers of
a key follow ``applied_order``. A cycle in that graph fails the block.
Otherwise the block is replayed serially in that order by the small
interpreter below; every committed read must equal the value the engine
recorded, and the block's installed writes must equal the replay's.
"""
from __future__ import annotations

import heapq

from harmonydcc.core import INT64_MAX, INT64_MIN, BranchStep, ReadStep, UpdateStep

_CMP = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


class ReplayError(Exception):
    """A program cannot be replayed (bad step, overflow)."""


def run_program(steps, get, put) -> list[tuple[str, int | None]]:
    """Run one program serially; returns its (key, value) reads in order.

    Reads see the transaction's own earlier updates. A branch compares the
    last value read of its key (absent as 0) and skips ``skip`` steps when
    the comparison is false.
    """
    reads: list[tuple[str, int | None]] = []
    last_read: dict[str, int | None] = {}
    pc = 0
    while pc < len(steps):
        step = steps[pc]
        pc += 1
        if isinstance(step, ReadStep):
            value = get(step.key)
            reads.append((step.key, value))
            last_read[step.key] = value
        elif isinstance(step, UpdateStep):
            old = get(step.key) or 0
            if step.kind == "add":
                new = old + step.operand
            elif step.kind == "mul":
                new = old * step.operand
            elif step.kind == "set":
                new = step.operand
            else:
                raise ReplayError(f"unknown update kind {step.kind!r}")
            if not INT64_MIN <= new <= INT64_MAX:
                raise ReplayError(f"{step.key} overflows: {new}")
            put(step.key, new)
        elif isinstance(step, BranchStep):
            if step.key not in last_read:
                raise ReplayError(f"branch on unread key {step.key!r}")
            observed = last_read[step.key]
            if not _CMP[step.cmp](0 if observed is None else observed, step.operand):
                pc += step.skip
        else:
            raise ReplayError(f"unknown step {step!r}")
    return reads


def serial_order(result) -> list[int] | None:
    """Committed tids in an order that respects every rw and ww edge of the
    block (ties by tid); None when the edges form a cycle."""
    succ: dict[int, set[int]] = {tid: set() for tid in result.committed}
    for tid in result.committed:
        for record in result.reads.get(tid, ()):
            for writer in result.applied_order.get(record.key, ()):
                if writer != tid and writer in succ:
                    succ[tid].add(writer)
    for order in result.applied_order.values():
        for earlier, later in zip(order, order[1:]):
            if earlier in succ and later in succ:
                succ[earlier].add(later)
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for target in targets:
            indegree[target] += 1
    ready = [tid for tid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        for target in succ[tid]:
            indegree[target] -= 1
            if indegree[target] == 0:
                heapq.heappush(ready, target)
    return order if len(order) == len(succ) else None


def check_block(block, result, model: dict[str, int]) -> list[str]:
    """Check one processed block against ``model``, the state before it.

    Returns the problems found. The model is advanced by the replay's
    writes, never by the engine's, so it stays the benchmark's own account
    of the state.
    """
    tids = {txn.tid for txn in block.txns}
    if result.committed | result.aborted != tids or result.committed & result.aborted:
        return [f"block {block.id}: committed and aborted do not partition the block"]
    for key, order in result.applied_order.items():
        if not set(order) <= result.committed:
            return [f"block {block.id}: {key} applied a write of an aborted transaction"]
    order = serial_order(result)
    if order is None:
        return [f"block {block.id}: dependency cycle among committed transactions"]
    programs = {txn.tid: txn.steps for txn in block.txns}
    written: dict[str, int] = {}

    def get(key):
        return written[key] if key in written else model.get(key)

    problems = []
    for tid in order:
        try:
            reads = run_program(programs[tid], get, written.__setitem__)
        except ReplayError as exc:
            return [f"block {block.id}: T{tid} cannot be replayed: {exc}"]
        recorded = [(r.key, r.observed) for r in result.reads.get(tid, ())]
        if reads != recorded:
            problems.append(f"block {block.id}: T{tid} read {recorded}, replay read {reads}")
    if written != result.writes:
        wrong = sorted(k for k in written.keys() | result.writes.keys()
                       if written.get(k) != result.writes.get(k))
        problems.append(f"block {block.id}: installed writes differ from replay on {wrong[:5]}")
    model.update(written)
    return problems


def check_state(store_state: dict[str, int], expected: dict[str, int], what: str) -> list[str]:
    """Compare a whole visible state with the expected one."""
    if store_state == expected:
        return []
    wrong = sorted(k for k in store_state.keys() | expected.keys()
                   if store_state.get(k) != expected.get(k))
    return [f"{what}: {len(wrong)} keys differ, first {wrong[:5]}"]


def conservation(preload: dict[str, int], blocks, results) -> dict[str, int]:
    """Expected YCSB state: each key's preload value plus the operands of
    every committed ``add`` that touched it."""
    expected = dict(preload)
    for block, result in zip(blocks, results):
        for txn in block.txns:
            if txn.tid not in result.committed:
                continue
            for step in txn.steps:
                if isinstance(step, UpdateStep):
                    if step.kind != "add":
                        raise ReplayError(f"conservation expects add only, got {step.kind}")
                    expected[step.key] = expected.get(step.key, 0) + step.operand
    return expected
