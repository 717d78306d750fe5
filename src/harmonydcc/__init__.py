"""Deterministic concurrency control engine and order-execute block pipeline."""

from .core import (
    Block,
    BranchStep,
    ReadStep,
    Transaction,
    UpdateStep,
    apply_command,
    compose,
    seal_block,
)
from .engine import BlockResult, HarmonyEngine
from .pipeline import RunConfig, make_blocks, run_replicas
from .storage import ChainLog, SnapshotStore
from .workloads import WorkloadSpec, generate

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockResult",
    "BranchStep",
    "ChainLog",
    "HarmonyEngine",
    "ReadStep",
    "RunConfig",
    "SnapshotStore",
    "Transaction",
    "UpdateStep",
    "WorkloadSpec",
    "apply_command",
    "compose",
    "generate",
    "make_blocks",
    "run_replicas",
    "seal_block",
]
