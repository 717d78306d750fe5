"""The output checks must reject corrupted results, and a corrupted block
must make its run report a failed block.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the repository's src/ on the path)
import checks  # noqa: E402
from harmonydcc import pipeline  # noqa: E402
from harmonydcc.core import apply_command  # noqa: E402

SMALL_YCSB = run.Workload("ycsb", 40, 0.99, 24, False, 100)
SMALL_BANK = run.Workload("smallbank", 30, 0.6, 24, True, 100)


def _alter_read(result):
    tid = next(t for t in sorted(result.committed) if result.reads[t])
    first, *rest = result.reads[tid]
    altered = first._replace(observed=(first.observed or 0) + 1)
    return dataclasses.replace(result, reads={**result.reads, tid: (altered, *rest)})


def _alter_write(result):
    key = min(result.writes)
    return dataclasses.replace(result, writes={**result.writes, key: result.writes[key] + 1})


def _install_aborted_write(result):
    tid = next(t for t in sorted(result.aborted) if result.commands[t])
    key, cmd = min(result.commands[tid].items())
    writes = dict(result.writes)
    writes[key] = apply_command(cmd, writes.get(key, 0))
    return dataclasses.replace(result, writes=writes)


CORRUPTIONS = [_alter_read, _alter_write, _install_aborted_write]


def _target(result) -> bool:
    """A block where every corruption above applies."""
    return bool(
        result.writes
        and any(result.reads[t] for t in result.committed)
        and any(result.commands[t] for t in result.aborted)
    )


def _processed(wl, seed=3):
    spec = run.workloads.WorkloadSpec(kind=wl.kind, keys=wl.keys, theta=wl.theta, seed=seed)
    programs = run.workloads.generate(spec, wl.round_blocks * run.BLOCK_SIZE)
    blocks = run.seal(programs, run.BLOCK_SIZE, 0, 0, run.GENESIS_PREV_HASH)
    replica = pipeline.Replica(0, pipeline.RunConfig(replicas=1))
    results = [replica.receive(block) for block in blocks]
    return blocks, results


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_check_block_rejects_corrupted_result(corrupt):
    blocks, results = _processed(SMALL_YCSB)
    target = next(i for i, result in enumerate(results) if _target(result))
    model: dict[str, int] = {}
    for i, (block, result) in enumerate(zip(blocks, results)):
        if i == target:
            assert checks.check_block(block, corrupt(result), model)
            return
        assert checks.check_block(block, result, model) == []


def test_cycle_among_committed_transactions_is_rejected():
    blocks, results = _processed(SMALL_YCSB)
    for block, result in zip(blocks, results):
        for key, order in result.applied_order.items():
            if len(order) > 1 and any(r.key == key for r in result.reads[order[0]]):
                # order[0] reads the key, so it must precede every other
                # writer of it; applying its write last closes a cycle.
                assert checks.serial_order(result) is not None
                cyclic = dataclasses.replace(
                    result, applied_order={**result.applied_order, key: order[1:] + order[:1]}
                )
                assert checks.serial_order(cyclic) is None
                assert checks.check_block(block, cyclic, {})
                return
    pytest.fail("no block where a reading transaction writes a key first")


@pytest.mark.parametrize("wl", [SMALL_YCSB, SMALL_BANK], ids=["ycsb", "smallbank-durable"])
def test_clean_round_passes_every_check(wl, tmp_path):
    first = run.run_round(wl, 5, tmp_path / "r0", None, None)
    assert first.problems == [] and not first.failed
    assert first.attempted == wl.round_blocks
    again = run.run_round(wl, 5, tmp_path / "r1", None, first.digests)
    assert again.problems == [] and not again.failed


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_corrupted_block_fails_its_run(corrupt, tmp_path, monkeypatch):
    original = pipeline.Replica.receive
    hit: list[int] = []

    def receive(self, block):
        result = original(self, block)
        if not hit and block.id >= 1 and _target(result):
            hit.append(block.id)
            result = corrupt(result)
            self.results[-1] = result
        return result

    monkeypatch.setattr(pipeline.Replica, "receive", receive)
    outcome = run.run_round(SMALL_YCSB, 5, tmp_path / "r0", None, None)
    assert hit and hit[0] in outcome.failed
    assert outcome.problems
