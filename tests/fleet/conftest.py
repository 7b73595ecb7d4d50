"""Shared fixtures for the fleet tests.

The specs here are deliberately tiny (few devices, short sessions) so
the determinism properties can be checked end-to-end — including across
a real process pool — without dominating the suite's runtime.

``reference`` is the one serial in-order run of ``small_spec``; every
other fleet test compares against it instead of rerunning it. The
schedule matrix in ``test_determinism.py`` is the one place a new
executor, shard layout or spill policy gets its byte-identity row
against that reference.
"""

from __future__ import annotations

import pytest

from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.fleet import FleetEngine, FleetSpec, SerialExecutor


class ReversingExecutor(SerialExecutor):
    """Serial executor that reports results in *reverse* completion
    order — the worst case for the engine's reorder buffer."""

    def stream(self, fn, payloads, telemetry=None, retry_budget=3):
        collected = list(
            super().stream(
                fn, payloads, telemetry=telemetry, retry_budget=retry_budget
            )
        )
        yield from reversed(collected)


class InterruptingExecutor(SerialExecutor):
    """Dies after streaming ``limit`` payloads (ctrl-C mid-sweep)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def stream(self, fn, payloads, telemetry=None, retry_budget=3):
        inner = super().stream(
            fn, payloads, telemetry=telemetry, retry_budget=retry_budget
        )
        for count, item in enumerate(inner):
            if count >= self.limit:
                raise KeyboardInterrupt("simulated interrupt")
            yield item


@pytest.fixture(scope="session")
def small_spec():
    """A full fleet run (energy + federation) small enough for tests."""
    return FleetSpec(
        game_name="candy_crush",
        devices=6,
        sessions_per_device=1,
        duration_s=4.0,
        seed=3,
        shard_size=2,
        profile_seeds=(1,),
        profile_duration_s=6.0,
    )


@pytest.fixture(scope="session")
def small_package(small_spec):
    """The centrally profiled package every shard task ships."""
    profiler = CloudProfiler(SnipConfig())
    return profiler.build_package_from_sessions(
        small_spec.game_name,
        seeds=list(small_spec.profile_seeds),
        duration_s=small_spec.profile_duration_s,
    )


@pytest.fixture(scope="session")
def small_shards(small_spec, small_package):
    """Every shard of ``small_spec``, simulated once for reducer tests."""
    from repro.fleet.work import ShardTask, run_shard

    return [
        run_shard(
            ShardTask(
                shard_index=shard.index,
                spec=small_spec,
                device_ids=shard.device_ids,
                selection=small_package.selection,
                table=small_package.table,
                config=SnipConfig(),
            )
        )
        for shard in small_spec.iter_shards()
    ]


@pytest.fixture(scope="session")
def reference(small_spec, small_package):
    """The serial in-order run every schedule must reproduce."""
    return FleetEngine(small_spec, package=small_package, cache=None).run()
