"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the suite uses fixed seeds throughout, so each criterion is a
deterministic check, not a statistical one.
"""
import random

import pytest

from harmonydcc import oracle
from harmonydcc.baselines import AriaEngine
from harmonydcc.core import (
    GENESIS_PREV_HASH,
    BranchStep,
    ReadStep,
    Transaction,
    UpdateStep,
    seal_block,
)
from harmonydcc.engine import (
    EngineOptions,
    HarmonyEngine,
    resolve_rw_states,
    validate,
)
from harmonydcc.pipeline import RunConfig, Replica, make_blocks, run_replicas
from harmonydcc.storage import SnapshotStore, load_latest_checkpoint, recover
from harmonydcc.workloads import WorkloadSpec, generate

SEED = 1234
THETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _mk_blocks(per_block, first_tid=0):
    blocks, prev, tid = [], GENESIS_PREV_HASH, first_tid
    for bid, programs in enumerate(per_block):
        txns = []
        for steps in programs:
            txns.append(Transaction(tid, bid, tuple(steps)))
            tid += 1
        block = seal_block(bid, txns, prev)
        prev = block.hash
        blocks.append(block)
    return blocks


def _abort_rate(results) -> float:
    total = sum(len(r.committed) + len(r.aborted) for r in results)
    return sum(len(r.aborted) for r in results) / total


# ---------------------------------------------------------------------------


def test_criterion_01_determinism_across_replicas_and_delays():
    """4 replicas, YCSB theta=0.6, 200 blocks of 25, 20 delay seeds, both
    inter-block modes: identical hash rows in 100% of runs."""
    spec = WorkloadSpec(kind="ycsb", keys=10_000, theta=0.6, seed=SEED)
    blocks = make_blocks(generate(spec, 200 * 25), 25)
    delay_seeds = random.Random(SEED).sample(range(2**31), 20)
    runs = ok_runs = 0
    reference = {}
    for inter_block in (False, True):
        for delay_seed in delay_seeds:
            outcome = run_replicas(
                blocks,
                RunConfig(
                    replicas=4,
                    delay_max=5.0,
                    seed=delay_seed,
                    inter_block=inter_block,
                ),
            )
            runs += 1
            row = outcome.hash_matrix[0]
            if outcome.rows_identical() and reference.setdefault(inter_block, row) == row:
                ok_runs += 1
    _report(1, ok_runs == runs, f"{ok_runs}/{runs} runs with identical hash rows")


def _random_program(rng, keys):
    steps = []
    read_keys = []
    for _ in range(rng.randint(1, 5)):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.40:
            steps.append(ReadStep(key))
            read_keys.append(key)
        elif roll < 0.50 and read_keys:
            steps.append(
                BranchStep(
                    rng.choice(read_keys),
                    rng.choice(("lt", "ge", "eq")),
                    rng.randint(-5, 20),
                    1,
                )
            )
            steps.append(UpdateStep(rng.choice(keys), "add", rng.randint(1, 5)))
        elif roll < 0.80:
            steps.append(UpdateStep(key, "add", rng.randint(1, 5)))
        elif roll < 0.90:
            steps.append(UpdateStep(key, "set", rng.randint(0, 20)))
        else:
            steps.append(UpdateStep(key, "mul", rng.choice((0, 1, 2))))
    return tuple(steps)


def test_criterion_02_serializability_over_randomized_blocks():
    """10,000 randomized blocks (<= 16 txns): dependency-graph acyclicity
    and serial-replay equivalence on every block. Zero tolerance."""
    rng = random.Random(20260810)
    checked = failures = 0
    for _ in range(250):
        keyspace = [f"k{i}" for i in range(rng.randint(4, 24))]
        store = SnapshotStore()
        engine = HarmonyEngine(store, EngineOptions())
        prev, tid = GENESIS_PREV_HASH, 0
        for block_id in range(40):
            txns = []
            for _ in range(rng.randint(2, 16)):
                txns.append(Transaction(tid, block_id, _random_program(rng, keyspace)))
                tid += 1
            block = seal_block(block_id, txns, prev)
            prev = block.hash
            result = engine.process_block(block)
            checked += 1
            graph = oracle.build_graph(result)
            if not oracle.is_acyclic(graph) or not oracle.serial_equivalence(
                block, result, store
            ):
                failures += 1
    _report(2, failures == 0 and checked == 10_000,
            f"{checked} blocks checked, {failures} violations")


def _random_config(rng):
    n = rng.randint(2, 12)
    tids = list(range(1, n + 1))
    keys = [f"k{i}" for i in range(rng.randint(1, 5))]
    readers_of = {k: sorted(rng.sample(tids, rng.randint(0, n))) for k in keys}
    writers_of = {k: sorted(rng.sample(tids, rng.randint(0, n))) for k in keys}
    return tids, readers_of, writers_of


def test_criterion_03_accumulator_rule_matches_enumeration():
    """1,000 random dependency configurations (<= 12 txns): the min_out /
    max_in abort test equals explicit pattern enumeration, exactly."""
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(1000):
        tids, readers_of, writers_of = _random_config(rng)
        dep, _ = resolve_rw_states(tids, readers_of, writers_of)
        edges = set()
        for key, writers in writers_of.items():
            for j in readers_of.get(key, ()):
                for i in writers:
                    if i != j:
                        edges.add((j, i))
        for j in tids:
            outgoing = [i for (jj, i) in edges if jj == j]
            incoming = [k for (k, jj) in edges if jj == j]
            enumerated = any(
                i < j and i <= k for i in outgoing for k in incoming
            )
            if validate(dep[j]) != enumerated:
                mismatches += 1
    _report(3, mismatches == 0, f"1000 configurations, {mismatches} mismatches")


def test_criterion_04_min_out_order_is_topological():
    """Same configurations: ascending (min_out, tid) over the survivors
    violates no surviving rw edge. Zero violations."""
    rng = random.Random(SEED)
    violations = 0
    for _ in range(1000):
        tids, readers_of, writers_of = _random_config(rng)
        dep, _ = resolve_rw_states(tids, readers_of, writers_of)
        survivors = [t for t in tids if not validate(dep[t])]
        position = {
            t: i
            for i, t in enumerate(sorted(survivors, key=lambda t: (dep[t].min_out, t)))
        }
        for key, writers in writers_of.items():
            for reader in readers_of.get(key, ()):
                for writer in writers:
                    if (
                        reader != writer
                        and reader in position
                        and writer in position
                        and position[reader] >= position[writer]
                    ):
                        violations += 1
    _report(4, violations == 0, f"1000 configurations, {violations} order violations")


@pytest.mark.parametrize("n", [10, 50, 100])
def test_criterion_05_blind_writers_commit_under_reordering(n):
    """N blind adders of one key: all commit (final = snapshot + sum) under
    the engine, exactly 1 commits under the write/write baseline."""
    seed_program = (UpdateStep("hot", "set", 1000),)
    adders = [(UpdateStep("hot", "add", i + 1),) for i in range(n)]
    blocks = _mk_blocks([[seed_program], adders])
    store = SnapshotStore()
    engine = HarmonyEngine(store, EngineOptions())
    engine.process_block(blocks[0])
    result = engine.process_block(blocks[1])
    expected = 1000 + n * (n + 1) // 2
    harmony_ok = (
        len(result.committed) == n and store.read("hot", 1) == expected
    )
    aria_store = SnapshotStore()
    aria = AriaEngine(aria_store)
    aria.process_block(blocks[0])
    aria_result = aria.process_block(blocks[1])
    aria_ok = len(aria_result.committed) == 1
    _report(
        5,
        harmony_ok and aria_ok,
        f"N={n}: engine commits {len(result.committed)} (value "
        f"{store.read('hot', 1)}), ww baseline commits {len(aria_result.committed)}",
    )


def test_criterion_06_figure_reproductions():
    """Two-transaction pattern aborts exactly T2; the reorder example yields
    x=40 with both committed; the update-reorder figure sorts x as [T4, T2]."""
    t1 = (ReadStep("x"), UpdateStep("y", "add", 1))
    t2 = (ReadStep("y"), UpdateStep("x", "add", 1))
    store = SnapshotStore()
    result = HarmonyEngine(store).process_block(_mk_blocks([[t1, t2]], 1)[0])
    two_txn_ok = result.aborted == frozenset({2}) and result.committed == frozenset({1})

    seed_program = (UpdateStep("x", "set", 10),)
    r1 = (UpdateStep("y", "add", 1), UpdateStep("x", "add", 10))
    r2 = (ReadStep("y"), UpdateStep("x", "mul", 3))
    blocks = _mk_blocks([[seed_program], [r1, r2]])
    store2 = SnapshotStore()
    engine2 = HarmonyEngine(store2)
    engine2.process_block(blocks[0])
    reorder = engine2.process_block(blocks[1])
    reorder_ok = reorder.aborted == frozenset() and store2.read("x", 1) == 40

    f1 = (ReadStep("b"), UpdateStep("a", "add", 1))
    f2 = (ReadStep("c"), UpdateStep("b", "add", 1), UpdateStep("x", "mul", 2))
    f3 = (UpdateStep("c", "add", 1),)
    f4 = (ReadStep("a"), UpdateStep("x", "add", 5))
    store3 = SnapshotStore()
    figure = HarmonyEngine(store3).process_block(_mk_blocks([[f1, f2, f3, f4]], 1)[0])
    figure_ok = figure.applied_order["x"] == (4, 2) and not figure.aborted

    _report(
        6,
        two_txn_ok and reorder_ok and figure_ok,
        f"two-txn abort={set(result.aborted)}, reorder x={store2.read('x', 1)}, "
        f"updater order={figure.applied_order['x']}",
    )


def test_criterion_07_inter_block_policy_is_timing_independent():
    """The cross-block pattern aborts exactly the newest transaction on both
    replicas, whether or not the later block arrives late."""
    filler = (UpdateStep("seed", "set", 1),)
    t1 = (UpdateStep("a", "add", 1),)
    t2 = (ReadStep("a"), UpdateStep("b", "add", 1))
    t3 = (ReadStep("b"), UpdateStep("c", "add", 1))
    blocks = _mk_blocks([[filler], [t1, t2], [t3]])
    ok = True
    details = []
    for delay_seed in (0, 11):  # near-simultaneous vs. straggling delivery
        outcome = run_replicas(
            blocks,
            RunConfig(replicas=2, delay_max=20.0, seed=delay_seed, inter_block=True),
        )
        for rid in range(2):
            results = outcome.results[rid]
            ok = (
                ok
                and results[1].committed == frozenset({1, 2})
                and results[2].aborted == frozenset({3})
            )
        ok = ok and outcome.rows_identical()
        details.append(
            f"seed {delay_seed}: aborts={[set(r[2].aborted) for r in outcome.results]}"
        )
    _report(7, ok, "; ".join(details))


def test_criterion_08_abort_ordering_and_hit_rate_trends():
    """Across theta sweeps on both workloads the engine's abort rate never
    exceeds either baseline; hit rate is non-decreasing in theta and the
    banking workload's stays at or below the key-value workload's."""
    txns = 4000
    rates = {}
    hits = {}
    for workload in ("ycsb", "smallbank"):
        for theta in THETAS:
            spec = WorkloadSpec(kind=workload, keys=10_000, theta=theta, seed=SEED)
            blocks = make_blocks(generate(spec, txns), 25)
            for engine in ("harmony", "aria", "fabric"):
                outcome = run_replicas(
                    blocks, RunConfig(replicas=1, engine=engine, seed=0)
                )
                rates[(workload, theta, engine)] = _abort_rate(outcome.results[0])
                if engine == "harmony":
                    hits[(workload, theta)] = oracle.hit_rate(outcome.results[0])
    ordering_ok = all(
        rates[(w, t, "harmony")] <= rates[(w, t, "aria")]
        and rates[(w, t, "harmony")] <= rates[(w, t, "fabric")]
        for w in ("ycsb", "smallbank")
        for t in THETAS
    )
    monotone_ok = all(
        hits[(w, a)] <= hits[(w, b)]
        for w in ("ycsb", "smallbank")
        for a, b in zip(THETAS, THETAS[1:])
    )
    dominated_ok = all(
        hits[("smallbank", t)] <= hits[("ycsb", t)] for t in THETAS
    )
    ycsb_hits = [f"{hits[('ycsb', t)]:.4f}" for t in THETAS]
    small_hits = [f"{hits[('smallbank', t)]:.4f}" for t in THETAS]
    _report(
        8,
        ordering_ok and monotone_ok and dominated_ok,
        f"ordering={ordering_ok}, hit trend ycsb={ycsb_hits}, "
        f"smallbank={small_hits}",
    )


def test_criterion_09_hotspot_resiliency():
    """At hotspot probabilities 0.1 / 0.5 / 1.0 with block size 25 the
    engine's abort rate stays below 5%; the ww baseline exceeds 50% at 1.0."""
    harmony_rates = {}
    aria_rates = {}
    for prob in (0.1, 0.5, 1.0):
        spec = WorkloadSpec(
            kind="hotspot",
            keys=10_000,
            theta=0.0,
            seed=SEED,
            hotspot_prob=prob,
            hotspot_fraction=0.01,
        )
        blocks = make_blocks(generate(spec, 2000), 25)
        for engine, bucket in (("harmony", harmony_rates), ("aria", aria_rates)):
            outcome = run_replicas(blocks, RunConfig(replicas=1, engine=engine, seed=0))
            bucket[prob] = _abort_rate(outcome.results[0])
    ok = all(rate < 0.05 for rate in harmony_rates.values()) and aria_rates[1.0] > 0.50
    _report(
        9,
        ok,
        f"engine={ {p: f'{r:.4f}' for p, r in harmony_rates.items()} }, "
        f"ww baseline at 1.0={aria_rates[1.0]:.4f}",
    )


def test_criterion_10_ablation_directions():
    """theta=1.0: update reordering strictly reduces the abort rate versus
    the raw engine. theta=0: inter-block overlap does not reduce commits per
    second. theta=0.6: inter-block raises the abort rate by < 10 points."""
    spec_hi = WorkloadSpec(kind="ycsb", keys=10_000, theta=1.0, seed=SEED)
    blocks_hi = make_blocks(generate(spec_hi, 2500), 25)
    hi = {}
    for update_optim in (True, False):
        outcome = run_replicas(
            blocks_hi,
            RunConfig(replicas=1, engine="harmony", update_optim=update_optim, seed=0),
        )
        hi[update_optim] = _abort_rate(outcome.results[0])
    reorder_ok = hi[True] < hi[False]

    spec_lo = WorkloadSpec(kind="ycsb", keys=10_000, theta=0.0, seed=SEED)
    blocks_lo = make_blocks(generate(spec_lo, 2500), 25)
    cps = {}
    for inter_block in (False, True):
        outcome = run_replicas(
            blocks_lo,
            RunConfig(replicas=1, engine="harmony", inter_block=inter_block, seed=0),
        )
        committed = sum(len(r.committed) for r in outcome.results[0])
        cps[inter_block] = committed / outcome.makespans[0]
    throughput_ok = cps[True] >= cps[False]

    spec_mid = WorkloadSpec(kind="ycsb", keys=10_000, theta=0.6, seed=SEED)
    blocks_mid = make_blocks(generate(spec_mid, 2500), 25)
    mid = {}
    for inter_block in (False, True):
        outcome = run_replicas(
            blocks_mid,
            RunConfig(replicas=1, engine="harmony", inter_block=inter_block, seed=0),
        )
        mid[inter_block] = _abort_rate(outcome.results[0])
    delta_ok = (mid[True] - mid[False]) < 0.10

    _report(
        10,
        reorder_ok and throughput_ok and delta_ok,
        f"abort raw={hi[False]:.4f} vs reordered={hi[True]:.4f}; "
        f"cps off={cps[False]:.0f} on={cps[True]:.0f}; "
        f"inter delta={100 * (mid[True] - mid[False]):.2f}pp",
    )


def test_criterion_11_recovery_and_tamper_detection(tmp_path):
    """50 kill-and-recover trials reproduce every post-recovery state hash;
    50 tamper injections are each detected at exactly the tampered block."""
    rng = random.Random(SEED)
    recover_ok = 0
    for trial in range(50):
        n_blocks = rng.randint(12, 35)
        spec = WorkloadSpec(
            kind="ycsb", keys=60, ops_per_txn=4, theta=0.5, seed=rng.randrange(2**31)
        )
        blocks = make_blocks(generate(spec, n_blocks * 5), 5)
        trial_dir = tmp_path / f"trial{trial}"
        trial_dir.mkdir()
        config = RunConfig(replicas=1, engine="harmony", checkpoint_p=10, seed=0)
        replica = Replica(0, config, data_dir=trial_dir)
        for block in blocks:
            replica.receive(block)
        pre_crash = list(replica.state_hashes)
        replica.close()  # crash: all volatile state gone

        def rebuild(store, engine_state):
            engine = HarmonyEngine(store, EngineOptions())
            engine.restore_state(engine_state)
            return engine

        recovered = recover(trial_dir, rebuild)
        checkpoint = load_latest_checkpoint(trial_dir)
        replay_start = checkpoint.block + 1 if checkpoint else 0
        if (
            recovered.last_block == n_blocks - 1
            and all(
                recovered.state_hashes[b] == pre_crash[b]
                for b in range(replay_start, n_blocks)
            )
            and recovered.store.state_hash() == pre_crash[-1]
        ):
            recover_ok += 1

    from harmonydcc.pipeline import tamper_block
    from harmonydcc.storage import ChainLog

    spec = WorkloadSpec(kind="ycsb", keys=60, ops_per_txn=4, theta=0.5, seed=SEED)
    chain_blocks = make_blocks(generate(spec, 250), 5)
    tamper_ok = 0
    for trial in range(50):
        target = rng.randrange(len(chain_blocks))
        chain = ChainLog()
        for block in chain_blocks:
            chain.append_block(block)
        if trial % 2 == 0:
            chain.blocks[target] = tamper_block(chain.blocks[target])
        else:
            original = chain.blocks[target]
            chain.blocks[target] = original.__class__(
                id=original.id,
                txns=original.txns,
                prev_hash="f" * 64,
                hash=original.hash,
            )
        if chain.verify_chain() == target:
            tamper_ok += 1
    _report(
        11,
        recover_ok == 50 and tamper_ok == 50,
        f"recovery {recover_ok}/50, tamper detection {tamper_ok}/50",
    )
