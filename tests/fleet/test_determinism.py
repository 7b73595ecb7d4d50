"""The tentpole property: scheduling can never change a fleet's results.

Every schedule — process pool, work queue, reversed completion through a
one-shard reorder buffer, any shard size, a second serial run that
resolves its own package, the scalar reference path — must render the shared serial
``reference`` byte for byte, text and JSON. The rendered report is the
strongest form: it covers float sums, census ordering, the federated
table, and formatting in one comparison.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial

import pytest

from repro.core.fastpath import batching_enabled, disable_batching, enable_batching
from repro.errors import FleetError
from repro.fleet import (
    FleetEngine,
    ProcessFleetExecutor,
    QueueFleetExecutor,
    SerialExecutor,
    TelemetryBus,
)
from repro.fleet.reducers import canonical_device_results
from repro.fleet.work import run_shard
from tests.fleet.conftest import ReversingExecutor


@contextmanager
def _scalar_path():
    """Route every device through the scalar reference, then restore."""
    restore = batching_enabled()
    disable_batching()
    try:
        yield
    finally:
        if restore:
            enable_batching()


#: One row per schedule: (executor factory, spec overrides, engine
#: overrides, scalar path?). The ``serial-again`` row injects no
#: package, so the engine resolves its own from the spec's profile
#: seeds through the default package cache, as the ``fleet`` command
#: does.
SCHEDULES = [
    pytest.param(partial(ProcessFleetExecutor, 4), {}, {}, False, id="process-4"),
    pytest.param(partial(QueueFleetExecutor, jobs=2), {}, {}, False, id="queue-2"),
    pytest.param(
        ReversingExecutor, {}, {"max_live_shards": 1}, False, id="reversed-spill"
    ),
    *(
        pytest.param(
            SerialExecutor, {"shard_size": size}, {}, False, id=f"shard-size-{size}"
        )
        for size in (1, 3, 6, 50)
    ),
    pytest.param(
        SerialExecutor, {}, {"package": None, "cache": "auto"}, False, id="serial-again"
    ),
    pytest.param(SerialExecutor, {}, {}, True, id="scalar"),
]


@pytest.mark.parametrize("executor, spec_changes, engine_changes, scalar", SCHEDULES)
def test_schedule_renders_the_serial_reference(
    executor, spec_changes, engine_changes, scalar,
    small_spec, small_package, reference,
):
    telemetry = TelemetryBus()
    options = {"package": small_package, "cache": None, **engine_changes}
    engine = FleetEngine(
        replace(small_spec, **spec_changes),
        executor=executor(),
        telemetry=telemetry,
        **options,
    )
    with _scalar_path() if scalar else nullcontext():
        report = engine.run()
    assert report.to_text() == reference.to_text()
    assert report.to_json() == reference.to_json()
    if engine_changes.get("max_live_shards") == 1:
        # Reverse completion forces every shard through the reorder
        # buffer and all but one onto disk. The gauge samples the
        # buffer's post-insert high-water mark, so a cap of 1 peaks at
        # 2 (the insert that triggers each spill) and never reads 0.
        assert 1 <= telemetry.counters.peak_live_shards <= 2


def test_device_results_do_not_depend_on_shard_neighbours(
    small_spec, small_package
):
    """A device computes the same numbers wherever it is dealt."""
    from repro.core.config import SnipConfig
    from repro.fleet.work import ShardTask

    config = SnipConfig()

    def shard_of(device_ids):
        return run_shard(
            ShardTask(
                shard_index=0,
                spec=small_spec,
                device_ids=device_ids,
                selection=small_package.selection,
                table=small_package.table,
                config=config,
            )
        )

    alone = shard_of((2,)).device_results[0]
    accompanied = next(
        device
        for device in shard_of((0, 1, 2, 3)).device_results
        if device.device_id == 2
    )
    assert alone.snip_joules == accompanied.snip_joules
    assert alone.baseline_joules == accompanied.baseline_joules
    assert alone.hits == accompanied.hits
    assert alone.events == accompanied.events
    assert alone.archetype == accompanied.archetype


def test_reducers_reject_incomplete_or_duplicated_populations(
    small_spec, small_package
):
    from repro.core.config import SnipConfig
    from repro.fleet.work import ShardTask

    task = ShardTask(
        shard_index=0,
        spec=small_spec,
        device_ids=(0, 1),
        selection=small_package.selection,
        table=small_package.table,
        config=SnipConfig(),
    )
    shard = run_shard(task)
    with pytest.raises(FleetError, match="missing"):
        canonical_device_results([shard], small_spec)
    with pytest.raises(FleetError, match="twice"):
        canonical_device_results([shard, shard], small_spec)
    with pytest.raises(FleetError, match="different"):
        wrong_spec = replace(small_spec, seed=small_spec.seed + 1)
        canonical_device_results([shard], wrong_spec)
