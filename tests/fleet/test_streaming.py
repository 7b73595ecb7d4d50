"""Streaming reduction: fold order, resume, eviction, and gauges.

The acceptance property of the streaming engine: however shard results
are resumed or evicted, the rendered :class:`FleetReport` (text and
JSON) is byte-identical to the serial in-order run — and the engine
only re-executes work that was never folded. Schedule and spill
equivalence live in the matrix in ``test_determinism.py``.
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    CheckpointStore,
    FleetEngine,
    TelemetryBus,
    canonical_device_results,
    reduce_census,
    reduce_totals,
)
from repro.fleet.telemetry import LIVE_SHARDS, PEAK_RSS, RUN_STARTED
from tests.fleet.conftest import InterruptingExecutor, ReversingExecutor


def _run(small_spec, small_package, **kwargs):
    return FleetEngine(
        small_spec, package=small_package, cache=None, **kwargs
    ).run()


def test_shard_observer_sees_every_shard_in_fold_order(
    small_spec, small_package, reference
):
    # The observer hangs off the fold site, so even reverse completion
    # (every shard through the reorder buffer) yields index order —
    # this is what hands the serve daemon a deterministic report
    # stream.
    seen = []
    report = _run(
        small_spec,
        small_package,
        executor=ReversingExecutor(),
        shard_observer=lambda shard: seen.append(shard.shard_index),
    )
    assert seen == list(range(small_spec.shard_count))
    assert report.to_json() == reference.to_json()


def test_shard_observer_covers_resumed_shards(
    tmp_path, small_spec, small_package
):
    run_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        _run(
            small_spec,
            small_package,
            executor=InterruptingExecutor(limit=2),
            checkpoint=run_dir,
        )
    # Resume replays the checkpointed shards through the same fold
    # path, so the observer still sees the complete, ordered stream.
    seen = []
    _run(
        small_spec,
        small_package,
        checkpoint=run_dir,
        shard_observer=lambda shard: seen.append(shard.shard_index),
    )
    assert seen == list(range(small_spec.shard_count))


def test_streamed_report_matches_batch_reduction(
    small_shards, small_spec, reference
):
    devices = canonical_device_results(small_shards, small_spec)
    assert reference.totals == reduce_totals(devices)
    assert reference.census == reduce_census(devices)


def test_resume_folds_checkpointed_shards_without_rerunning(
    tmp_path, small_spec, small_package, reference
):
    run_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        _run(
            small_spec,
            small_package,
            executor=InterruptingExecutor(limit=2),
            checkpoint=run_dir,
        )
    assert len(CheckpointStore(run_dir).completed_indices()) == 2

    telemetry = TelemetryBus()
    resumed = _run(
        small_spec, small_package, checkpoint=run_dir, telemetry=telemetry
    )
    assert resumed.to_text() == reference.to_text()
    assert resumed.to_json() == reference.to_json()
    started = next(
        event for event in telemetry.history if event.kind == RUN_STARTED
    )
    assert started.payload["resumed"] == 2
    # Only the unfolded shards were re-executed.
    assert telemetry.counters.shards_done == small_spec.shard_count - 2
    # Every shard is now persisted; a third run is pure replay.
    assert CheckpointStore(run_dir).completed_indices() == list(
        range(small_spec.shard_count)
    )
    telemetry = TelemetryBus()
    replayed = _run(
        small_spec, small_package, checkpoint=run_dir, telemetry=telemetry
    )
    assert replayed.to_text() == reference.to_text()
    assert telemetry.counters.shards_done == 0


def test_corrupt_checkpoint_shard_is_evicted_and_rerun(
    tmp_path, small_spec, small_package, reference
):
    run_dir = tmp_path / "run"
    first = _run(small_spec, small_package, checkpoint=run_dir)
    assert first.to_text() == reference.to_text()
    store = CheckpointStore(run_dir)
    store.shard_path(1).write_bytes(b"truncated garbage")

    telemetry = TelemetryBus()
    rerun = _run(
        small_spec, small_package, checkpoint=run_dir, telemetry=telemetry
    )
    assert rerun.to_text() == reference.to_text()
    started = next(
        event for event in telemetry.history if event.kind == RUN_STARTED
    )
    assert started.payload["corrupt_evictions"] == 1
    assert started.payload["resumed"] == small_spec.shard_count - 1
    assert telemetry.counters.shards_done == 1  # only the evicted shard


def test_engine_emits_live_shard_and_rss_gauges(small_spec, small_package):
    telemetry = TelemetryBus()
    _run(small_spec, small_package, telemetry=telemetry)
    kinds = {event.kind for event in telemetry.history}
    assert LIVE_SHARDS in kinds
    assert PEAK_RSS in kinds
    assert telemetry.counters.peak_rss_bytes > 0
    # High-water gauging: every insert is sampled before the drain, so
    # the peak is at least 1 and at most one past the buffer cap.
    assert 1 <= telemetry.counters.peak_live_shards <= 9


def test_bounded_history_keeps_counters_whole(small_spec, small_package):
    telemetry = TelemetryBus(history_limit=4)
    _run(small_spec, small_package, telemetry=telemetry)
    assert len(telemetry.history) <= 4
    assert telemetry.counters.shards_done == small_spec.shard_count
    assert telemetry.counters.peak_rss_bytes > 0
