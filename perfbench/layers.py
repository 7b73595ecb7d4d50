"""Layer timers for the traced benchmark run, installed from outside.

:func:`install` wraps public entry points of each ``repro`` layer with
timers; nothing in ``src/repro`` changes. Every wrapped call takes part
in one per-process call stack, so a layer's *self time* is its wrapped
calls minus the wrapped calls nested inside them.

Two kinds of boundary are recorded:

* **spans** (sessions, devices, shards, folds, checkpoint writes,
  profiler stages, registry writes, ledger records) keep their name,
  start, end, parent span and an id (device id, shard index or cycle
  index), for the Chrome trace export;
* **per-event calls** (game handler, SNIP runtime delivery, baseline
  delivery, SoC background accrual) are summed into (calls, self time)
  instead, so a traced window holds O(devices) spans, never O(events).

Everything stays in memory. Worker processes of a pool executor write
their records to one file per ``run_shard`` call, which the parent
merges when the run ends. Records are bucketed by phase (``setup``,
``window``, ``check``); a pool worker inherits the phase in force when
the pool forked it, and pools live for one engine run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: Wrapped call sites: (module, attribute path, layer, kind).
#: ``span`` records a span, ``event`` sums calls and self time,
#: ``gen`` times each step of a generator as a span.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.users.population", "Population.iter_columnar_sessions", "users.session", "gen"),
    ("repro.games.base", "Game.process", "games.process", "event"),
    ("repro.android.dispatch", "EventLoop.deliver", "android.baseline_deliver", "event"),
    ("repro.android.dispatch", "BatchedEventLoop.deliver", "android.baseline_deliver", "event"),
    ("repro.core.runtime", "SnipRuntime.deliver", "core.runtime.deliver", "event"),
    ("repro.soc.soc", "Soc.advance_time", "soc.advance_time", "event"),
    ("repro.soc.soc", "Soc.report", "soc.report", "span"),
    ("repro.core.federated", "ContributionBuilder.add_session_events",
     "core.federated.fold", "span"),
    ("repro.core.federated", "ContributionBuilder.finish", "core.federated.finish", "span"),
    ("repro.fleet.work", "run_device", "fleet.device", "span"),
    ("repro.fleet.executors", "SerialExecutor.stream", "fleet.stream_wait", "gen"),
    ("repro.fleet.executors", "ProcessFleetExecutor.stream", "fleet.stream_wait", "gen"),
    ("repro.fleet.executors", "QueueFleetExecutor.stream", "fleet.stream_wait", "gen"),
    ("repro.fleet.reducers", "FleetFold.fold", "fleet.fold", "span"),
    ("repro.fleet.checkpoint", "CheckpointStore.save", "fleet.checkpoint_save", "span"),
    ("repro.core.profiler", "CloudProfiler.replay_traces", "core.profiler.replay", "span"),
    ("repro.core.profiler", "CloudProfiler.analyze", "core.pfi.run", "span"),
    ("repro.core.profiler", "CloudProfiler.select", "core.selection.select", "span"),
    ("repro.core.table", "SnipTable.build", "core.table.build", "span"),
    ("repro.core.package_cache", "PackageCache.load", "core.package_cache.load", "span"),
    ("repro.registry.store", "PackageRegistry.publish", "registry.publish", "span"),
    ("repro.registry.store", "PackageRegistry.promote", "registry.promote", "span"),
    ("repro.service.ledger", "CycleLedger.record_stage", "service.ledger_record", "span"),
)

#: Layers whose wrapped calls carry an id, and where it comes from.
_IDENT: Dict[str, Callable[[tuple], Any]] = {
    "users.session": lambda args: args[2],
    "core.federated.fold": lambda args: args[0].contribution.device_id,
    "core.federated.finish": lambda args: args[0].contribution.device_id,
    "fleet.device": lambda args: args[0],
    "fleet.fold": lambda args: args[1].shard_index,
    "fleet.checkpoint_save": lambda args: args[1].shard_index,
    "service.ledger_record": lambda args: args[1],
}

#: The recorder of this process (inherited by forked pool workers).
_ACTIVE: Optional["Recorder"] = None


class Recorder:
    """Spans, per-event totals and counters, bucketed by phase."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir
        self.owner_pid = os.getpid()
        self.origin = perf()
        self.phase = "setup"
        self.window: Tuple[float, float] = (0.0, 0.0)
        self._reset()

    def _reset(self) -> None:
        #: (phase, name, start, end, parent index, id, self seconds, pid)
        self.spans: List[tuple] = []
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[Tuple[str, str], float] = {}
        #: Open wrapped calls: [child seconds, span index or -1].
        self.stack: List[list] = []

    # -- phases ------------------------------------------------------------

    def begin_window(self) -> None:
        self.phase = "window"
        self.window = (perf(), 0.0)

    def end_window(self) -> None:
        self.window = (self.window[0], perf())
        self.phase = "check"

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def observed_span(self, name: str, start: float, end: float, ident: Any) -> None:
        """A span measured by the program itself (telemetry), off-stack."""
        self.spans.append(
            (self.phase, name, start, end, -1, ident, end - start, os.getpid())
        )

    def call(
        self, name: str, span: bool, fn: Callable, args: tuple, kwargs: dict,
        ident: Any = None,
    ):
        """Run one wrapped call on the stack, charging its self time."""
        stack = self.stack
        index = -1
        if span:
            parent = stack[-1][1] if stack else -1
            index = len(self.spans)
            self.spans.append(None)  # reserved; filled on exit
        frame = [0.0, index]
        stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            if span:
                self.spans[index] = (
                    self.phase, name, start, end, parent, ident, own, os.getpid()
                )
            else:
                key = (self.phase, name)
                total = self.totals.get(key)
                if total is None:
                    total = self.totals[key] = [0, 0.0]
                total[0] += 1
                total[1] += own

    def step(self, name: str, iterator, ident: Any):
        """Time each ``next()`` of a generator as one span."""
        while True:
            try:
                item = self.call(name, True, next, (iterator,), {}, ident)
            except StopIteration:
                return
            yield item

    # -- worker side channel -----------------------------------------------

    def worker_begin(self) -> None:
        """Drop what a forked worker inherited from its parent."""
        self._reset()

    def worker_flush(self, shard_index: int) -> None:
        """Write this worker's records for one ``run_shard`` call."""
        path = self.trace_dir / (
            f"worker-{os.getpid()}-{shard_index}-{time.perf_counter_ns()}.json"
        )
        payload = {
            "spans": [span for span in self.spans if span is not None],
            "totals": [[k[0], k[1], v[0], v[1]] for k, v in self.totals.items()],
            "counters": [[k[0], k[1], v] for k, v in self.counters.items()],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._reset()

    def merge_workers(self) -> None:
        """Fold every worker file into this (parent) recorder."""
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            offset = len(self.spans)
            for span in payload["spans"]:
                span = list(span)
                if span[4] >= 0:
                    span[4] += offset
                self.spans.append(tuple(span))
            for phase, name, calls, own in payload["totals"]:
                total = self.totals.setdefault((phase, name), [0, 0.0])
                total[0] += calls
                total[1] += own
            for phase, name, value in payload["counters"]:
                key = (phase, name)
                self.counters[key] = self.counters.get(key, 0.0) + value
            path.unlink()

    # -- summaries ---------------------------------------------------------

    def layer_totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s}}`` for one phase, all processes."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span is None or span[0] != phase or span[1].startswith("bench."):
                continue
            entry = out.setdefault(span[1], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span[6]
        for (span_phase, name), (calls, own) in self.totals.items():
            if span_phase != phase:
                continue
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += own
        return out

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get((phase, name), 0.0)

    def uncovered_s(self) -> float:
        """Window time in this process that no layer span covers."""
        start, end = self.window
        intervals = sorted(
            (max(span[2], start), min(span[3], end))
            for span in self.spans
            if span is not None
            and span[0] == "window"
            and span[7] == self.owner_pid
            and not span[1].startswith("bench.")
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """Chrome trace-event JSON (loads in Perfetto and chrome://tracing)."""
        events: List[Dict[str, Any]] = []
        pids = sorted({span[7] for span in self.spans if span is not None})
        for pid in pids:
            label = "benchmark" if pid == self.owner_pid else f"pool worker {pid}"
            events.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": pid,
                 "args": {"name": label}}
            )
        for span in self.spans:
            if span is None:
                continue
            phase, name, start, end, parent, ident, own, pid = span
            args: Dict[str, Any] = {"phase": phase, "self_ms": own * 1e3}
            if ident is not None:
                args["id"] = ident
            if parent >= 0 and self.spans[parent] is not None:
                args["parent"] = self.spans[parent][1]
            events.append(
                {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(recorder: Recorder, name: str, kind: str, original: Callable) -> Callable:
    ident_of = _IDENT.get(name)
    if kind == "gen":

        @functools.wraps(original)
        def gen_wrapper(*args, **kwargs):
            ident = ident_of(args) if ident_of else None
            return recorder.step(name, original(*args, **kwargs), ident)

        return gen_wrapper
    span = kind == "span"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        ident = ident_of(args) if ident_of else None
        return recorder.call(name, span, original, args, kwargs, ident)

    return wrapper


def _count_hits(recorder: Recorder, original: Callable) -> Callable:
    """``SnipRuntime.deliver`` returns ``None`` when it snipped the event."""

    @functools.wraps(original)
    def deliver(*args, **kwargs):
        trace = original(*args, **kwargs)
        if trace is None:
            recorder.count("core.runtime.hits", 1)
        return trace

    return deliver


def _count_cache_hits(recorder: Recorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def load(cache, key):
        package = original(cache, key)
        recorder.count(
            "core.package_cache.hits" if package is not None
            else "core.package_cache.misses",
            1,
        )
        return package

    return load


_COUNTERS = {
    "core.runtime.deliver": _count_hits,
    "core.package_cache.load": _count_cache_hits,
}


def _count_charges(recorder: Recorder) -> None:
    """Count the energy ledger's entries at the meters' public methods.

    ``charge`` records one entry unless the charge is zero, which the
    meters drop; ``extend`` records one per pattern item.
    """
    energy = importlib.import_module("repro.soc.energy")

    def counted_charge(original: Callable) -> Callable:
        @functools.wraps(original)
        def charge(meter, component, group, joules, *args, **kwargs):
            original(meter, component, group, joules, *args, **kwargs)
            if joules:
                recorder.count("soc.ledger_entries", 1)

        return charge

    def counted_extend(original: Callable) -> Callable:
        @functools.wraps(original)
        def extend(meter, pattern):
            original(meter, pattern)
            recorder.count("soc.ledger_entries", len(pattern))

        return extend

    for cls in (energy.EnergyMeter, energy.ColumnarMeter):
        cls.charge = counted_charge(cls.__dict__["charge"])
    energy.ColumnarMeter.extend = counted_extend(energy.ColumnarMeter.__dict__["extend"])


_ORIGINAL_RUN_SHARD: Optional[Callable] = None


def traced_run_shard(task):
    """``run_shard`` with a span; pool workers flush once per call."""
    recorder = _ACTIVE
    if recorder is None:  # a spawned (not forked) worker: nothing installed
        return importlib.import_module("repro.fleet.work").run_shard(task)
    worker = os.getpid() != recorder.owner_pid
    if worker:
        recorder.worker_begin()
    result = recorder.call(
        "fleet.run_shard", True, _ORIGINAL_RUN_SHARD, (task,), {}, task.shard_index
    )
    recorder.count(
        "fleet.shard_bytes",
        len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)),
    )
    if worker:
        recorder.worker_flush(task.shard_index)
    return result


def install(trace_dir: Path) -> Recorder:
    """Wrap every target; returns the process's recorder."""
    global _ACTIVE, _ORIGINAL_RUN_SHARD
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(trace_dir)
    _ACTIVE = recorder
    for module_name, path, name, kind in TARGETS:
        owner, attribute = _resolve(module_name, path)
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        counted = _COUNTERS.get(name)
        if counted is not None:
            original = counted(recorder, original)
        wrapped = _wrap(recorder, name, kind, original)
        setattr(owner, attribute, classmethod(wrapped) if is_classmethod else wrapped)
    _count_charges(recorder)
    engine = importlib.import_module("repro.fleet.engine")
    _ORIGINAL_RUN_SHARD = engine.run_shard
    engine.run_shard = traced_run_shard
    return recorder
