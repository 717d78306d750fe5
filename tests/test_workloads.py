import dataclasses
import math
import random
from collections import Counter

import pytest

from harmonydcc.baselines import SerialEngine
from harmonydcc.core import ContractError, ReadStep, UpdateStep
from harmonydcc.pipeline import make_blocks
from harmonydcc.storage import SnapshotStore
from harmonydcc.workloads import (
    WorkloadSpec,
    ZipfSampler,
    gen_smallbank,
    gen_ycsb,
    generate,
)

from test_engine import mk_blocks


def test_zipf_theta_zero_is_uniform():
    rng = random.Random(1)
    sampler = ZipfSampler(20, 0.0, rng)
    draws = 40_000
    counts = Counter(sampler.sample() for _ in range(draws))
    expected = draws / 20
    sigma = math.sqrt(draws * (1 / 20) * (19 / 20))
    for rank in range(20):
        assert abs(counts[rank] - expected) < 3 * sigma


def test_zipf_same_seed_identical_streams():
    a = ZipfSampler(100, 0.7, random.Random(5))
    b = ZipfSampler(100, 0.7, random.Random(5))
    assert [a.sample() for _ in range(500)] == [b.sample() for _ in range(500)]


def test_zipf_top_rank_matches_closed_form_mass():
    rng = random.Random(99)
    sampler = ZipfSampler(10_000, 0.99, rng)
    draws = 1_000_000
    hits = sum(1 for _ in range(draws) if sampler.sample() == 0)
    # independent harmonic-sum oracle for the rank-0 probability
    mass = 1.0 / sum(1.0 / r**0.99 for r in range(1, 10_001))
    assert abs(hits / draws - mass) / mass < 0.05


def test_zipf_supports_full_skew():
    sampler = ZipfSampler(1000, 1.0, random.Random(3))
    draws = [sampler.sample() for _ in range(10_000)]
    assert all(0 <= r < 1000 for r in draws)
    counts = Counter(draws)
    assert counts[0] > counts.get(500, 0)


def test_zipf_rejects_bad_parameters():
    with pytest.raises(ContractError):
        ZipfSampler(0, 0.5, random.Random(0))
    with pytest.raises(ContractError):
        ZipfSampler(10, 1.5, random.Random(0))


# ---------------------------------------------------------------------------
# Generators


def test_ycsb_streams_are_pure_functions_of_spec():
    spec = WorkloadSpec(kind="ycsb", keys=100, theta=0.6, seed=12)
    assert gen_ycsb(spec, 50) == gen_ycsb(spec, 50)


def test_ycsb_shape():
    spec = WorkloadSpec(kind="ycsb", keys=100, ops_per_txn=10, seed=0)
    programs = gen_ycsb(spec, 20)
    assert all(len(p) == 10 for p in programs)
    kinds = {type(s) for p in programs for s in p}
    assert kinds == {ReadStep, UpdateStep}
    assert all(
        s.kind == "add" for p in programs for s in p if isinstance(s, UpdateStep)
    )


def test_hotspot_prob_zero_degenerates_to_ycsb():
    spec = WorkloadSpec(kind="hotspot", keys=100, theta=0.3, seed=7, hotspot_prob=0.0)
    ycsb = WorkloadSpec(kind="ycsb", keys=100, theta=0.3, seed=7)
    assert generate(spec, 40) == generate(ycsb, 40)
    # the ycsb kind ignores hotspot_prob
    assert generate(dataclasses.replace(ycsb, hotspot_prob=0.5), 40) == generate(ycsb, 40)


def test_hotspot_prob_one_emits_only_fused_updates():
    spec = WorkloadSpec(
        kind="hotspot", keys=1000, seed=7, hotspot_prob=1.0, hotspot_fraction=0.01
    )
    programs = generate(spec, 30)
    hot_keys = {f"k{r:05d}" for r in range(10)}
    for program in programs:
        for step in program:
            assert isinstance(step, UpdateStep)  # no read dependency
            assert step.key in hot_keys


def test_smallbank_uses_paired_account_keys():
    spec = WorkloadSpec(kind="smallbank", keys=50, theta=0.2, seed=21)
    programs = gen_smallbank(spec, 100)
    keys = {s.key for p in programs for s in p}
    assert all(k.startswith(("c:", "s:")) for k in keys)


def test_deposit_checking_adds_amount():
    # run one deposit against a seeded balance through the serial executor
    seed_program = (UpdateStep("c:00003", "set", 10),)
    deposit = (UpdateStep("c:00003", "add", 5),)
    blocks = mk_blocks([[seed_program], [deposit]])
    store = SnapshotStore()
    engine = SerialEngine(store)
    for block in blocks:
        engine.process_block(block)
    assert store.read("c:00003", 1) == 15


def test_send_payment_guard_blocks_insufficient_funds():
    from harmonydcc.core import execute_program
    from harmonydcc.workloads import _send_payment

    rng = random.Random(0)

    class _FixedZipf:
        def __init__(self):
            self.calls = 0

        def sample(self):
            self.calls += 1
            return 1 if self.calls % 2 else 2

    program = _send_payment(rng, _FixedZipf(), 10)
    amount = program[1].operand
    # balance below the amount: the guard skips both updates
    _, commands = execute_program(1, program, lambda k: amount - 2)
    assert commands == {}
    # sufficient balance: debit and credit both emitted
    _, commands = execute_program(1, program, lambda k: amount + 2)
    assert len(commands) == 2


def test_write_check_penalty_branches():
    from harmonydcc.core import execute_program
    from harmonydcc.workloads import _write_check

    rng = random.Random(8)

    class _OneAccount:
        def sample(self):
            return 0

    program = _write_check(rng, _OneAccount(), 10)
    amount = program[2].operand
    _, commands = execute_program(1, program, lambda k: amount + 50)
    applied = commands["c:00000"]
    from harmonydcc.core import apply_command

    assert apply_command(applied, amount + 50) == 50  # normal path
    _, commands = execute_program(1, program, lambda k: amount - 1)
    assert apply_command(commands["c:00000"], amount - 1) == -2  # penalty path


def test_generate_dispatch_and_unknown_kind():
    spec = WorkloadSpec(kind="ycsb", keys=10, seed=1)
    assert generate(spec, 3) == gen_ycsb(spec, 3)
    with pytest.raises(ContractError):
        generate(WorkloadSpec(kind="tpcc"), 1)


def test_streams_identical_across_generator_instances():
    spec = WorkloadSpec(kind="smallbank", keys=30, theta=0.8, seed=13)
    blocks_a = make_blocks(generate(spec, 60), 10)
    blocks_b = make_blocks(generate(spec, 60), 10)
    assert [b.hash for b in blocks_a] == [b.hash for b in blocks_b]
