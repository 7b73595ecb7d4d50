"""One benchmark process: set up, run the timed window, check outputs.

``run.py`` starts each of these in a fresh interpreter with a fresh
``REPRO_SNIP_CACHE_DIR``, so the package cache and the process-wide
memos start cold, as they do for one ``repro-snip`` invocation. The
result goes to ``--out`` as JSON; stdout is free for the program.
"""

import time

START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics of the traced window: name -> (unit, source).
#: Sources: ("self", layer) self seconds (for the daemon's stages, the
#: inclusive STAGE_FINISHED seconds), ("calls", layer) call count,
#: ("counter", name), or a derived value.
LAYER_METRICS = (
    ("users.session_s", "s", ("self", "users.session")),
    ("games.process_s", "s", ("self", "games.process")),
    ("games.process_calls", "count", ("calls", "games.process")),
    ("android.baseline_deliver_s", "s", ("self", "android.baseline_deliver")),
    ("core.runtime.deliver_s", "s", ("self", "core.runtime.deliver")),
    ("core.runtime.hit_ratio", "ratio", ("derived", "hit_ratio")),
    ("soc.advance_time_s", "s", ("self", "soc.advance_time")),
    ("soc.advance_time_calls", "count", ("calls", "soc.advance_time")),
    ("soc.charges_per_event", "1/event", ("derived", "charges_per_event")),
    ("soc.report_s", "s", ("self", "soc.report")),
    ("core.federated.fold_s", "s", ("self", "core.federated.fold")),
    ("core.federated.finish_s", "s", ("self", "core.federated.finish")),
    ("fleet.device_s", "s", ("self", "fleet.device")),
    ("fleet.run_shard_s", "s", ("self", "fleet.run_shard")),
    ("fleet.stream_wait_s", "s", ("self", "fleet.stream_wait")),
    ("fleet.fold_s", "s", ("self", "fleet.fold")),
    ("fleet.checkpoint_save_s", "s", ("self", "fleet.checkpoint_save")),
    ("fleet.shard_bytes", "bytes", ("counter", "fleet.shard_bytes")),
    ("fleet.worker_failures", "count", ("derived", "worker_failures")),
    ("core.profiler.replay_s", "s", ("self", "core.profiler.replay")),
    ("core.pfi.run_s", "s", ("self", "core.pfi.run")),
    ("core.selection.select_s", "s", ("self", "core.selection.select")),
    ("core.table.build_s", "s", ("self", "core.table.build")),
    ("core.package_cache.hit_ratio", "ratio", ("derived", "cache_hit_ratio")),
    ("registry.publish_s", "s", ("self", "registry.publish")),
    ("registry.promote_s", "s", ("self", "registry.promote")),
    ("service.ingest_s", "s", ("self", "service.ingest")),
    ("service.profile_s", "s", ("self", "service.profile")),
    ("service.publish_s", "s", ("self", "service.publish")),
    ("service.plan_s", "s", ("self", "service.plan")),
    ("service.ship_s", "s", ("self", "service.ship")),
    ("service.ledger_record_s", "s", ("self", "service.ledger_record")),
    ("trace.window_s", "s", ("derived", "window_s")),
    ("trace.uncovered_s", "s", ("derived", "uncovered_s")),
    ("trace.events", "count", ("derived", "events")),
)


def layer_metrics(recorder, events: int, failures: int) -> dict:
    """Per-layer figures of the traced window (all processes)."""
    totals = recorder.layer_totals("window")
    deliveries = totals.get("core.runtime.deliver", {}).get("calls", 0)
    hits = recorder.counter("window", "core.runtime.hits")
    cache_hits = recorder.counter("window", "core.package_cache.hits")
    cache_calls = cache_hits + recorder.counter("window", "core.package_cache.misses")
    entries = recorder.counter("window", "soc.ledger_entries")
    if totals.get("soc.report", {}).get("calls") and not entries:
        # A meter the wrappers miss would read as a free ledger.
        raise RuntimeError("SoC reports were taken, but no ledger entry was counted")
    start, end = recorder.window
    derived = {
        "hit_ratio": hits / deliveries if deliveries else 0.0,
        "charges_per_event": entries / events if events else 0.0,
        "worker_failures": failures,
        "cache_hit_ratio": cache_hits / cache_calls if cache_calls else 0.0,
        "window_s": end - start,
        "uncovered_s": recorder.uncovered_s(),
        "events": events,
    }
    metrics = {}
    for name, unit, (kind, key) in LAYER_METRICS:
        if kind == "self":
            value = totals.get(key, {}).get("self_s", 0.0)
        elif kind == "calls":
            value = totals.get(key, {}).get("calls", 0)
        elif kind == "counter":
            value = recorder.counter("window", key)
        else:
            value = derived[key]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


class WorkerMemory:
    """Peak of the summed private memory of this process's live children.

    Pool workers are forked, so most of their resident pages are shared
    with this process; only their private pages (``Private_Clean`` and
    ``Private_Dirty`` of ``/proc/<pid>/smaps_rollup``) are memory the
    run would not use without them. A thread samples them every
    PERIOD_S while the pools live.
    """

    PERIOD_S = 0.02
    FIELDS = (b"Private_Clean:", b"Private_Dirty:")

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    @staticmethod
    def _children() -> list:
        pids = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids.extend((task / "children").read_text().split())
            except OSError:
                pass
        return pids

    def _private_bytes(self, pid: str) -> int:
        try:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_bytes()
        except OSError:  # exited since it was listed
            return 0
        return 1024 * sum(
            int(line.split()[1]) for line in rollup.splitlines()
            if line.startswith(self.FIELDS)
        )

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            total = sum(self._private_bytes(pid) for pid in self._children())
            self.peak = max(self.peak, total)


def own_peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "record"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checks", type=int, choices=(0, 1), default=1)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--meta", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from repro.core.package_cache import code_digest

    args.workdir.mkdir(parents=True, exist_ok=True)
    recorder = None
    if args.trace:
        import layers

        recorder = layers.install(args.workdir / "spans")
    workload = workloads.make(args.workload, args.seed, args.workdir)
    if recorder is not None and hasattr(workload, "stage_spans"):
        workload.stage_spans(recorder)
    workload.setup()
    result = {"setup_s": time.perf_counter() - START}
    if args.phase == "setup":
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0
    if args.phase == "record":  # round 0 and the golden job, untimed
        workload.run_round(0)
        result.update(outputs=workload.outputs(), golden=workload.golden_outputs())
        workload.cleanup()
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0

    # -- timed window: whole closed-loop rounds until --seconds pass ----
    if recorder is not None:
        recorder.begin_window()
    # Peak memory is read after the first MIN_ROUNDS rounds, a fixed
    # amount of work, so a faster build that fits more rounds into the
    # window does not read as using more memory.
    cycles = []
    rounds = []
    peak_rss = None
    workers = WorkerMemory() if workload.worker_processes() else None
    if workers is not None:
        workers.start()
    window_start = time.perf_counter()
    while len(rounds) < workloads.MIN_ROUNDS or time.perf_counter() - window_start < args.seconds:
        round_start = time.perf_counter()
        done = workload.run_round(len(rounds))
        round_end = time.perf_counter()
        cycles.extend(done)
        rounds.append({
            "wall_s": round_end - round_start,
            "cycles": len(done),
            "events": sum(cycle.events for cycle in done),
            "devices": sum(cycle.devices for cycle in done),
        })
        if len(rounds) == workloads.MIN_ROUNDS:
            if workers is not None:
                workers.stop()
            peak_rss = {
                "own": own_peak_rss(), "workers": workers.peak if workers is not None else 0,
            }
        if recorder is not None:
            recorder.observed_span("bench.round", round_start, round_end, len(rounds) - 1)
    window_s = time.perf_counter() - window_start
    if recorder is not None:
        recorder.end_window()

    checks = workload.checks() if args.checks else []
    golden = workload.golden_outputs() if args.checks else None
    outputs = workload.outputs()
    events = sum(cycle.events for cycle in cycles)
    failures = sum(cycle.failures for cycle in cycles)
    result.update(
        window_s=window_s,
        rounds=rounds,
        cycle_walls=[cycle.wall_s for cycle in cycles],
        events=events,
        devices=sum(cycle.devices for cycle in cycles),
        shard_attempts=sum(cycle.shard_attempts for cycle in cycles),
        failures=failures,
        checks=checks,
        outputs=outputs,
        golden=golden,
        peak_rss_bytes=peak_rss["own"] + peak_rss["workers"],
        peak_rss_parts=peak_rss,
        code_digest=code_digest(),
        spec=workload.describe(),
    )
    if recorder is not None:
        recorder.merge_workers()
        result["layers"] = layer_metrics(recorder, events, failures)
        meta = json.loads(args.meta.read_text(encoding="utf-8")) if args.meta else {}
        meta.update(spec=result["spec"], code_digest=result["code_digest"])
        trace = recorder.chrome_trace(meta)
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(trace), encoding="utf-8")
        totals_path = args.trace_out.with_name(
            args.trace_out.name.replace(".trace.json", ".layers.json")
        )
        totals_path.write_text(
            json.dumps(
                {
                    "rules": meta,
                    "self_time": {
                        phase: recorder.layer_totals(phase)
                        for phase in ("setup", "window", "check")
                    },
                    "window_metrics": result["layers"],
                },
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
    workload.cleanup()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
