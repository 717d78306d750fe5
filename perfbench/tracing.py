"""Per-layer spans recorded from outside the program.

The tracer replaces public functions and methods of the harmonydcc layers
with wrappers that time each call, and restores the originals on exit.
Spans are aggregated in memory per name: total time, self time (total
minus the time of spans opened inside it) and call count. Collector pauses
are recorded through ``gc.callbacks`` and fsyncs by wrapping ``os.fsync``.
"""
from __future__ import annotations

import gc
import os
import time
from collections import Counter, defaultdict

from harmonydcc import core, engine, pipeline, storage, workloads

# (owner, attribute, span name). Owners are looked up at call time by the
# program (module globals or class attributes), so replacing the attribute
# routes every call through the wrapper.
SPANS = (
    (workloads, "generate", "workloads.generate"),
    (core, "seal_block", "core.seal"),
    (engine, "execute_program", "core.interpret"),
    (pipeline.Replica, "receive", "pipeline.receive"),
    (engine.HarmonyEngine, "process_block", "engine.process_block"),
    (engine.HarmonyEngine, "simulate", "engine.simulate"),
    (engine.HarmonyEngine, "resolve_dependencies", "engine.resolve"),
    (engine.HarmonyEngine, "apply_write_sets", "engine.apply"),
    (storage.SnapshotStore, "install_block_writes", "storage.install"),
    (storage.SnapshotStore, "state_hash", "storage.state_hash"),
    (storage.ChainLog, "append_block", "storage.chain_append"),
    (storage.CheckpointManager, "maybe_checkpoint", "storage.checkpoint"),
    (storage, "load_latest_checkpoint", "storage.checkpoint_load"),
    (storage.ChainLog, "load", "storage.recover_load"),
    (storage, "recover", "storage.recover"),
    (os, "fsync", "storage.fsync"),
)


class Tracer:
    """Aggregated spans; ``take()`` returns and clears what a phase recorded."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.checkpoints = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None
        self._gc_on = False

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPANS:
            raw = vars(owner).get(attr)
            if raw is None:  # renamed or removed: its span reads 0
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))
        return self

    def __exit__(self, *exc) -> None:
        self.gc_watch(False)
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        total, self_time, calls = self.total, self.self_time, self.calls
        stack = self._stack
        clock = time.perf_counter
        counts_checkpoints = name == "storage.checkpoint"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - inner
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if counts_checkpoints and out:
                self.checkpoints += 1
            return out

        return wrapper

    # -- collector pauses -----------------------------------------------

    def gc_watch(self, on: bool) -> None:
        """Record generation-2 collections while ``on``."""
        if on and not self._gc_on:
            gc.callbacks.append(self._gc_event)
        elif not on and self._gc_on:
            gc.callbacks.remove(self._gc_event)
        self._gc_on = on

    def _gc_event(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- phases ---------------------------------------------------------

    def take(self) -> dict:
        """Everything recorded since the last call, then reset."""
        out = {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "checkpoints": self.checkpoints,
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": self.gc_collections,
        }
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.checkpoints = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        return out
