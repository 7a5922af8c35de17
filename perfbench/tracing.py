"""Spans recorded around calls into the program's public entry points.

The benchmark never edits the program: it replaces a handful of public
functions and methods with thin wrappers for the duration of a round and
restores them afterwards.  Each wrapper records one span (name, start, end,
parent, cell id) in memory.  Fork-started pool workers inherit the wrappers;
each worker dumps its own spans to a file when it exits, and the parent
merges them.

Two levels:

* ``cells`` — only ``execute_spec``, so every round can report per-cell
  latency.  Untraced rounds run at this level (two clock reads per cell).
* ``full`` — every layer boundary below, for the traced rounds.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

import repro.api.runner as runner_module
from repro.api.cache import RunnerCache
from repro.api.runner import SerialRunner
from repro.api.store import ResultStore
from repro.checkpoint.store import CheckpointStore
from repro.system.simulator import MonitoringSimulation

CELL_SPAN = "api.cell"

#: (owner, attribute, span name) wrapped at the ``full`` level.  Both
#: engine loops map to one span: a round runs whichever the config selects.
FULL_WRAPS: Tuple[Tuple[object, str, str], ...] = (
    (SerialRunner, "run", "api.runner"),
    (RunnerCache, "trace", "workload.trace"),
    (RunnerCache, "schedule", "cores.schedule"),
    (RunnerCache, "plan", "monitors.plan"),
    (runner_module, "build_simulation", "system.build"),
    (MonitoringSimulation, "run", "system.run"),
    (MonitoringSimulation, "_run_warmup", "system.warmup"),
    (MonitoringSimulation, "_run_event", "system.engine"),
    (MonitoringSimulation, "_run_naive", "system.engine"),
    (MonitoringSimulation, "_finalize", "system.finalize"),
    (ResultStore, "get", "api.store.get"),
    (ResultStore, "put", "api.store.put"),
    (CheckpointStore, "put", "checkpoint.put"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "cell", "pid", "thread")

    def __init__(self, ident, name, start, parent, cell, pid, thread) -> None:
        self.id = ident
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cell = cell
        self.pid = pid
        self.thread = thread

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir
        self.spans: List[Span] = []
        self.level: Optional[str] = None
        self.ckpt_peak_bytes = 0
        self._local = threading.local()
        self._ids = itertools.count()
        self._originals: List[Tuple[object, str, object]] = []
        self._caches: "weakref.WeakSet[RunnerCache]" = weakref.WeakSet()
        self._lock = threading.Lock()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # ----------------------------------------------------------- recording

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, cell: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            None if parent is None else parent.id,
            cell,
            os.getpid(),
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            cell = None
            if name == CELL_SPAN:
                cell = args[0].describe()
            span = tracer.open(name, cell)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)
                if name == "checkpoint.put":
                    tracer._sample_checkpoint_bytes(args[0])

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def _sample_checkpoint_bytes(self, store: CheckpointStore) -> None:
        """Peak live checkpoint bytes, read through the public stats()
        after each write.  Recorded as a ``tracer.sample`` span so the
        read is charged to tracing, not to the engine loop around it."""
        span = self.open("tracer.sample")
        try:
            live = int(store.stats()["bytes"])
            self.ckpt_peak_bytes = max(self.ckpt_peak_bytes, live)
        finally:
            self.close(span)

    def install(self, level: str) -> None:
        """Wrap the entry points for ``level`` ("cells" or "full")."""
        self.uninstall()
        self.level = level
        self._wrap(runner_module, "execute_spec", CELL_SPAN)
        if level == "full":
            for owner, attr, name in FULL_WRAPS:
                self._wrap(owner, attr, name)
            original_init = RunnerCache.__init__
            tracer = self

            @functools.wraps(original_init)
            def tracked_init(cache, *args, **kwargs):
                original_init(cache, *args, **kwargs)
                tracer._caches.add(cache)

            RunnerCache.__init__ = tracked_init
            self._originals.append((RunnerCache, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self.level = None

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self.ckpt_peak_bytes = 0
        self._local = threading.local()
        self._caches = weakref.WeakSet()

    # ------------------------------------------------------ pool workers

    def _after_fork(self) -> None:
        """In a forked multiprocessing child: drop the parent's spans and
        arrange for this process's spans to be dumped when it exits."""
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.ckpt_peak_bytes = 0
        self._caches = weakref.WeakSet()
        if self.level == "full" and self.dump_dir is not None:
            multiprocessing.util.Finalize(
                None, self._dump_worker, exitpriority=100
            )

    def _dump_worker(self) -> None:
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [span.to_dict() for span in self.spans],
                    "cache_stats": self.cache_stats(),
                    "ckpt_peak_bytes": self.ckpt_peak_bytes,
                },
                handle,
            )

    def cache_stats(self) -> Dict[str, int]:
        """RunnerCache.stats() summed over every cache this process built
        while tracing."""
        total: Dict[str, int] = {}
        for cache in list(self._caches):
            for key, value in cache.stats().items():
                total[key] = total.get(key, 0) + value
        return total


def load_worker_dumps(dump_dir: str) -> List[dict]:
    """The span files fork workers wrote into ``dump_dir``."""
    dumps = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(dump_dir, name)) as handle:
                dumps.append(json.load(handle))
    return dumps


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the time its direct
    children cover.  Spans are dicts as :meth:`Span.to_dict` gives them;
    parent ids are only meaningful within one process."""
    child_time: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = (
                child_time.get(key, 0.0) + span["end"] - span["start"]
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"]
        own -= child_time.get((span["pid"], span["id"]), 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
