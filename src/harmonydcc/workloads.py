"""Deterministic workload generators.

Streams are pure functions of (spec, count): the same spec and seed produce
the same transactions on every replica and every run. Programs branch only
on read values, so they stay deterministic under snapshot simulation.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from .core import BranchStep, ContractError, ReadStep, Step, UpdateStep

Program = tuple[Step, ...]

WORKLOAD_KINDS = ("ycsb", "smallbank", "hotspot")
READ_RATIO = 0.5  # share of non-hotspot ycsb operations that are reads


class ZipfSampler:
    """Zipf-distributed ranks in [0, n) with skew theta in [0, 1].

    Rejection-free inverse-CDF sampling over the precomputed harmonic
    weights; theta = 0 degenerates to uniform. The table method stays exact
    at theta = 1.0, where the split-constant shortcut breaks down.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n <= 0:
            raise ContractError("key count must be positive")
        if not 0.0 <= theta <= 1.0:
            raise ContractError("theta must lie in [0, 1]")
        self._rng = rng
        cumulative = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            cumulative.append(total)
        self._cumulative = cumulative
        self.total_mass = total

    def sample(self) -> int:
        u = self._rng.random() * self.total_mass
        return bisect_right(self._cumulative, u)


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    keys: int = 10_000
    ops_per_txn: int = 10
    theta: float = 0.0
    hotspot_fraction: float = 0.01
    hotspot_prob: float = 0.0
    seed: int = 0


def _key(rank: int) -> str:
    return f"k{rank:05d}"


def gen_ycsb(spec: WorkloadSpec, count: int) -> list[Program]:
    """Point reads and additive updates over a Zipf-skewed keyspace, with
    ops_per_txn operations per transaction.

    For kind "hotspot", each operation instead targets, with probability
    hotspot_prob, one of the hotspot keys: the lowest hotspot_fraction of
    the ranks, which are also the hottest under skew. A hotspot
    read-modify-write is emitted as a single add command (the fused form),
    so it induces no read dependency. Other kinds ignore hotspot_prob, and
    with hotspot_prob = 0 the hotspot stream is the ycsb stream.
    """
    rng = random.Random(spec.seed)
    zipf = ZipfSampler(spec.keys, spec.theta, rng)
    hot_prob = spec.hotspot_prob if spec.kind == "hotspot" else 0.0
    hot_count = max(1, round(spec.keys * spec.hotspot_fraction))
    programs = []
    for _ in range(count):
        steps: list[Step] = []
        for _ in range(spec.ops_per_txn):
            if hot_prob > 0.0 and rng.random() < hot_prob:
                hot = rng.randrange(hot_count)
                steps.append(UpdateStep(_key(hot), "add", rng.randint(1, 10)))
                continue
            key = _key(zipf.sample())
            if rng.random() < READ_RATIO:
                steps.append(ReadStep(key))
            else:
                steps.append(UpdateStep(key, "add", rng.randint(1, 10)))
        programs.append(tuple(steps))
    return programs


# ---------------------------------------------------------------------------
# Smallbank

def _checking(account: int) -> str:
    return f"c:{account:05d}"


def _savings(account: int) -> str:
    return f"s:{account:05d}"


def gen_smallbank(spec: WorkloadSpec, count: int) -> list[Program]:
    """The six banking procedures over paired checking/savings keys.

    Account selection is Zipf-skewed and the procedure mix is uniform.
    Balance guards are expressed with branch steps, and amounts are fixed
    at generation time since update operands are constants.
    """
    rng = random.Random(spec.seed)
    zipf = ZipfSampler(spec.keys, spec.theta, rng)
    programs = []
    for _ in range(count):
        (proc,) = rng.choices(SMALLBANK_PROCS)
        programs.append(_SMALLBANK_BUILDERS[proc](rng, zipf, spec.keys))
    return programs


def _two_accounts(rng: random.Random, zipf: ZipfSampler, n: int) -> tuple[int, int]:
    a = zipf.sample()
    b = zipf.sample()
    if b == a:
        b = (a + 1 + rng.randrange(n - 1)) % n if n > 1 else a
    return a, b


def _amalgamate(rng: random.Random, zipf: ZipfSampler, n: int) -> Program:
    a, b = _two_accounts(rng, zipf, n)
    credit = rng.randint(1, 100)
    return (
        ReadStep(_savings(a)),
        ReadStep(_checking(a)),
        UpdateStep(_savings(a), "set", 0),
        UpdateStep(_checking(a), "set", 0),
        UpdateStep(_checking(b), "add", credit),
    )


def _balance(rng: random.Random, zipf: ZipfSampler, n: int) -> Program:
    a = zipf.sample()
    return (ReadStep(_checking(a)), ReadStep(_savings(a)))


def _deposit_checking(rng: random.Random, zipf: ZipfSampler, n: int) -> Program:
    a = zipf.sample()
    return (UpdateStep(_checking(a), "add", rng.randint(1, 100)),)


def _send_payment(rng: random.Random, zipf: ZipfSampler, n: int) -> Program:
    a, b = _two_accounts(rng, zipf, n)
    amount = rng.randint(1, 100)
    return (
        ReadStep(_checking(a)),
        BranchStep(_checking(a), "ge", amount, 2),  # insufficient funds: no-op
        UpdateStep(_checking(a), "add", -amount),
        UpdateStep(_checking(b), "add", amount),
    )


def _transact_savings(rng: random.Random, zipf: ZipfSampler, n: int) -> Program:
    a = zipf.sample()
    amount = rng.choice((-1, 1)) * rng.randint(1, 100)
    return (
        ReadStep(_savings(a)),
        BranchStep(_savings(a), "ge", -amount, 1),  # balance may not go negative
        UpdateStep(_savings(a), "add", amount),
    )


def _write_check(rng: random.Random, zipf: ZipfSampler, n: int) -> Program:
    a = zipf.sample()
    amount = rng.randint(1, 100)
    return (
        ReadStep(_checking(a)),
        ReadStep(_savings(a)),
        BranchStep(_checking(a), "lt", amount, 1),
        UpdateStep(_checking(a), "add", -(amount + 1)),  # overdraft penalty
        BranchStep(_checking(a), "ge", amount, 1),
        UpdateStep(_checking(a), "add", -amount),
    )


_SMALLBANK_BUILDERS = {
    "amalgamate": _amalgamate,
    "balance": _balance,
    "deposit_checking": _deposit_checking,
    "send_payment": _send_payment,
    "transact_savings": _transact_savings,
    "write_check": _write_check,
}
SMALLBANK_PROCS = tuple(_SMALLBANK_BUILDERS)


def generate(spec: WorkloadSpec, count: int) -> list[Program]:
    if spec.kind in ("ycsb", "hotspot"):
        return gen_ycsb(spec, count)
    if spec.kind == "smallbank":
        return gen_smallbank(spec, count)
    raise ContractError(f"unknown workload kind {spec.kind!r}")
