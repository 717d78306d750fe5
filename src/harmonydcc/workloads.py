"""Deterministic workload generators.

Streams are pure functions of (spec, count): the same spec and seed produce
the same transactions on every replica and every run. Programs branch only
on read values, so they stay deterministic under snapshot simulation.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

from .core import BranchStep, ContractError, ReadStep, Step, UpdateStep

Program = tuple[Step, ...]

WORKLOAD_KINDS = ("ycsb", "smallbank", "hotspot")
READ_RATIO = 0.5  # share of non-hotspot ycsb operations that are reads
HOTSPOT_FRACTION = 0.01  # share of the ranks, at least one, that are hotspot keys


class ZipfSampler:
    """Zipf-distributed ranks in [0, n) with skew theta in [0, 1].

    Rejection-free inverse-CDF sampling over the precomputed harmonic
    weights; theta = 0 degenerates to uniform. The table method stays exact
    at theta = 1.0, where the split-constant shortcut breaks down.
    WorkloadSpec checks n and theta.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
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
    hotspot_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ContractError(f"unknown workload kind {self.kind!r}")
        if self.keys < 1:
            raise ContractError("key count must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ContractError("theta must lie in [0, 1]")
        if not 0.0 <= self.hotspot_prob <= 1.0:
            raise ContractError("hotspot probability must lie in [0, 1]")
        if self.ops_per_txn < 1:
            raise ContractError("operations per transaction must be positive")


def _key(rank: int) -> str:
    return f"k{rank:05d}"


class _Shared:
    """Key and step constructors for one generated stream, each returning
    one object per distinct value. A skewed stream repeats most of its
    steps, and steps are NamedTuples, which CPython's cyclic collector
    never untracks, so a kept stream would otherwise hold one tracked
    tuple per operation. Each constructor looks its arguments up and builds
    only on a miss; the tables live as long as the generator call."""

    def __init__(self) -> None:
        self.key = cache(_key)
        self.checking = cache(_checking)
        self.savings = cache(_savings)
        self.read = cache(ReadStep)
        self.update = cache(UpdateStep)
        self.branch = cache(BranchStep)


def gen_ycsb(spec: WorkloadSpec, count: int) -> list[Program]:
    """Point reads and additive updates over a Zipf-skewed keyspace, with
    ops_per_txn operations per transaction.

    For kind "hotspot", each operation instead targets, with probability
    hotspot_prob, one of the hotspot keys: the lowest HOTSPOT_FRACTION of
    the ranks, which are also the hottest under skew. A hotspot
    read-modify-write is emitted as a single add command (the fused form),
    so it induces no read dependency. Other kinds ignore hotspot_prob, and
    with hotspot_prob = 0 the hotspot stream is the ycsb stream.
    """
    rng = random.Random(spec.seed)
    zipf = ZipfSampler(spec.keys, spec.theta, rng)
    hot_prob = spec.hotspot_prob if spec.kind == "hotspot" else 0.0
    hot_count = max(1, round(spec.keys * HOTSPOT_FRACTION))
    s = _Shared()
    programs = []
    for _ in range(count):
        steps: list[Step] = []
        for _ in range(spec.ops_per_txn):
            if hot_prob > 0.0 and rng.random() < hot_prob:
                hot = rng.randrange(hot_count)
                steps.append(s.update(s.key(hot), "add", rng.randint(1, 10)))
                continue
            key = s.key(zipf.sample())
            if rng.random() < READ_RATIO:
                steps.append(s.read(key))
            else:
                steps.append(s.update(key, "add", rng.randint(1, 10)))
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
    s = _Shared()
    programs = []
    for _ in range(count):
        (proc,) = rng.choices(SMALLBANK_PROCS)
        programs.append(_SMALLBANK_BUILDERS[proc](rng, zipf, spec.keys, s))
    return programs


def _two_accounts(rng: random.Random, zipf: ZipfSampler, n: int) -> tuple[int, int]:
    a = zipf.sample()
    b = zipf.sample()
    if b == a:
        b = (a + 1 + rng.randrange(n - 1)) % n if n > 1 else a
    return a, b


def _amalgamate(rng: random.Random, zipf: ZipfSampler, n: int, s: _Shared) -> Program:
    a, b = _two_accounts(rng, zipf, n)
    credit = rng.randint(1, 100)
    return (
        s.read(s.savings(a)),
        s.read(s.checking(a)),
        s.update(s.savings(a), "set", 0),
        s.update(s.checking(a), "set", 0),
        s.update(s.checking(b), "add", credit),
    )


def _balance(rng: random.Random, zipf: ZipfSampler, n: int, s: _Shared) -> Program:
    a = zipf.sample()
    return (s.read(s.checking(a)), s.read(s.savings(a)))


def _deposit_checking(rng: random.Random, zipf: ZipfSampler, n: int, s: _Shared) -> Program:
    a = zipf.sample()
    return (s.update(s.checking(a), "add", rng.randint(1, 100)),)


def _send_payment(rng: random.Random, zipf: ZipfSampler, n: int, s: _Shared) -> Program:
    a, b = _two_accounts(rng, zipf, n)
    amount = rng.randint(1, 100)
    return (
        s.read(s.checking(a)),
        s.branch(s.checking(a), "ge", amount, 2),  # insufficient funds: no-op
        s.update(s.checking(a), "add", -amount),
        s.update(s.checking(b), "add", amount),
    )


def _transact_savings(rng: random.Random, zipf: ZipfSampler, n: int, s: _Shared) -> Program:
    a = zipf.sample()
    amount = rng.choice((-1, 1)) * rng.randint(1, 100)
    return (
        s.read(s.savings(a)),
        s.branch(s.savings(a), "ge", -amount, 1),  # balance may not go negative
        s.update(s.savings(a), "add", amount),
    )


def _write_check(rng: random.Random, zipf: ZipfSampler, n: int, s: _Shared) -> Program:
    a = zipf.sample()
    amount = rng.randint(1, 100)
    return (
        s.read(s.checking(a)),
        s.read(s.savings(a)),
        s.branch(s.checking(a), "lt", amount, 1),
        s.update(s.checking(a), "add", -(amount + 1)),  # overdraft penalty
        s.branch(s.checking(a), "ge", amount, 1),
        s.update(s.checking(a), "add", -amount),
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
    if spec.kind == "smallbank":
        return gen_smallbank(spec, count)
    return gen_ycsb(spec, count)
