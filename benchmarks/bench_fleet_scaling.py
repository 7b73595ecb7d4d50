"""Fleet-engine scaling: constant-memory streaming at up to 1M devices.

Runs the streaming fleet engine at increasing device counts — each
scale in its own subprocess so ``ru_maxrss`` measures that scale alone —
and gates (rows ``fleet`` in ``gates.py``):

* **throughput**: devices simulated per second stays above a floor at
  every scale (the fold must not degrade as the sweep grows);
* **peak RSS**: memory grows sub-linearly in devices (the 10x-device
  jump may cost at most a small constant factor), and stays under an
  absolute ceiling — the observable proof that shard results are folded
  and dropped rather than collected;
* **batch speedup**: the columnar session fast path simulates at least
  5x the devices per second of the scalar ``*_reference`` engine. Both
  rates are timed in the same run on the same host, at ``SPEEDUP_DEVICES``
  devices, each in its own worker subprocess; the scalar one runs with
  ``REPRO_SNIP_NO_BATCH=1``;
* **bounded buffer**: no run's live-shard peak leaves
  ``[1, MAX_LIVE_SHARDS + 1]``, and no run loses a worker.

Also re-checks the engine's core guarantees at benchmark scale: serial
and queue-executor runs render byte-identical reports, and the batched
pipeline renders the same report as the scalar ``*_reference`` path.
Writes ``BENCH_fleet.json`` at the repo root.

Run directly (CI's perf-smoke job uses ``--quick``; the full run
simulates 1,000,000 devices)::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from gates import finish, parser

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Scales per mode: a 10x device jump whose RSS ratio is gated.
QUICK_SCALES = (2_000, 20_000)
FULL_SCALES = (100_000, 1_000_000)

#: Shards stay this size at every scale, so per-shard memory is flat
#: and only the engine's buffering could grow with the fleet.
SHARD_SIZE = 500
MAX_LIVE_SHARDS = 8

#: Both sides of the batch speedup run at this scale. Each worker starts
#: cold and its process-wide fold/event memos warm over the first few
#: hundred devices; a 2,000-device batched run lasts under a second, so
#: its ratio to the scalar rate swings widely from run to run.
SPEEDUP_DEVICES = 20_000


def _build_spec(devices: int):
    from repro.fleet import FleetSpec

    # Federation on, energy off: the reduction path (contributions,
    # census, totals) is what scales; the tripled energy replays would
    # only multiply wall time without touching more of the engine.
    return FleetSpec(
        game_name="candy_crush",
        devices=devices,
        sessions_per_device=1,
        duration_s=0.25,
        seed=11,
        shard_size=min(SHARD_SIZE, devices),
        profile_seeds=(1,),
        profile_duration_s=3.0,
        measure_energy=False,
        federate=True,
    )


def _worker(devices: int) -> int:
    """One scale, measured in isolation: prints a JSON line to stdout."""
    from repro.core.fastpath import batching_enabled
    from repro.fleet import FleetEngine, TelemetryBus, peak_rss_bytes

    spec = _build_spec(devices)
    telemetry = TelemetryBus(history_limit=64)
    engine = FleetEngine(
        spec,
        telemetry=telemetry,
        cache=None,
        max_live_shards=MAX_LIVE_SHARDS,
    )
    engine.build_package()  # profile outside the timed window
    start = time.perf_counter()
    report = engine.run()
    wall_s = time.perf_counter() - start
    counters = telemetry.counters
    print(
        json.dumps(
            {
                "devices": devices,
                "batched": batching_enabled(),
                "shards": spec.shard_count,
                "events": report.totals.events,
                "wall_s": wall_s,
                "devices_per_s": devices / wall_s,
                "peak_rss_bytes": peak_rss_bytes(),
                "peak_live_shards": counters.peak_live_shards,
                "worker_failures": counters.worker_failures,
                "table_entries": report.table_entries,
            }
        )
    )
    return 0


def _run_scale(devices: int, batched: bool = True) -> dict:
    """Run one scale in a fresh subprocess for a clean ru_maxrss."""
    from repro.core.fastpath import NO_BATCH_ENV

    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        str(devices),
    ]
    env = {key: value for key, value in os.environ.items() if key != NO_BATCH_ENV}
    if not batched:
        env[NO_BATCH_ENV] = "1"
    completed = subprocess.run(
        command, capture_output=True, text=True, cwd=str(REPO_ROOT), env=env
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"scale {devices} failed:\n{completed.stdout}\n{completed.stderr}"
        )
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    print(
        f"{devices:>9,d} devices ({'batched' if batched else 'scalar'}): "
        f"{outcome['devices_per_s']:7.0f} dev/s, "
        f"peak RSS {outcome['peak_rss_bytes'] / 1e6:7.1f} MB, "
        f"live shards <= {outcome['peak_live_shards']}",
        flush=True,
    )
    return outcome


def _equivalence_check() -> dict:
    """Serial, queue-executor, and scalar runs must render byte-identical
    reports."""
    from repro.core.fastpath import (
        batching_enabled,
        disable_batching,
        enable_batching,
    )
    from repro.fleet import FleetEngine, QueueFleetExecutor

    spec = _build_spec(64)
    serial = FleetEngine(spec, cache=None).run()
    queued = FleetEngine(
        spec,
        executor=QueueFleetExecutor(jobs=2),
        cache=None,
        max_live_shards=MAX_LIVE_SHARDS,
    ).run()
    executors_identical = (
        serial.to_text() == queued.to_text()
        and serial.to_json() == queued.to_json()
    )
    restore = batching_enabled()
    disable_batching()
    try:
        scalar = FleetEngine(spec, cache=None).run()
    finally:
        if restore:
            enable_batching()
    scalar_identical = (
        serial.to_text() == scalar.to_text()
        and serial.to_json() == scalar.to_json()
    )
    return {
        "serial_queue_identical": executors_identical,
        "batched_scalar_identical": scalar_identical,
    }


def main(argv=None) -> int:
    arguments = parser(__doc__)
    arguments.add_argument(
        "--worker", type=int, default=None, metavar="DEVICES",
        help=argparse.SUPPRESS,  # internal: run one isolated scale
    )
    args = arguments.parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    if args.worker is not None:
        return _worker(args.worker)

    identity = _equivalence_check()
    sweep = [
        _run_scale(devices)
        for devices in (QUICK_SCALES if args.quick else FULL_SCALES)
    ]
    batched = next(
        (run for run in sweep if run["devices"] == SPEEDUP_DEVICES), None
    ) or _run_scale(SPEEDUP_DEVICES)
    scalar = _run_scale(SPEEDUP_DEVICES, batched=False)
    runs = sweep + [run for run in (batched, scalar) if run not in sweep]
    live_peaks = [run["peak_live_shards"] for run in runs]
    metrics = {
        **identity,
        "min_devices_per_s": min(run["devices_per_s"] for run in sweep),
        "rss_growth": sweep[-1]["peak_rss_bytes"] / max(sweep[0]["peak_rss_bytes"], 1),
        "max_rss_bytes": max(run["peak_rss_bytes"] for run in sweep),
        "batched_devices_per_s": batched["devices_per_s"],
        "scalar_devices_per_s": scalar["devices_per_s"],
        "batch_speedup": batched["devices_per_s"] / scalar["devices_per_s"],
        "min_live_shards_peak": min(live_peaks),
        "live_shards_over_cap": max(live_peaks) - MAX_LIVE_SHARDS,
        "worker_failures": sum(run["worker_failures"] for run in runs),
    }
    return finish("fleet", metrics, args.quick, runs)


if __name__ == "__main__":
    sys.exit(main())
