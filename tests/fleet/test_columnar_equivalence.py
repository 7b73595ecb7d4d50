"""The columnar session fast path changes nothing observable.

``run_device`` routes every device through structure-of-arrays trace
assembly, batched probes, and columnar energy ledgers; the scalar
``run_device_reference`` is the seed implementation kept verbatim.
These tests assert *byte* identity of pickled :class:`DeviceResult`
payloads across every game, both cohorts of a staged rollout, and the
``REPRO_SNIP_NO_BATCH`` escape hatch. The rendered fleet report on the
scalar path is a row of the schedule matrix in ``test_determinism.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import SnipConfig
from repro.core.fastpath import (
    batching_enabled,
    disable_batching,
    enable_batching,
)
from repro.core.profiler import CloudProfiler
from repro.fleet import FleetSpec
from repro.fleet.spec import COHORT_CHALLENGER, COHORT_CHAMPION
from repro.fleet.work import run_device, run_device_reference
from repro.games.registry import GAME_NAMES


def _small_spec(game_name: str, **overrides) -> FleetSpec:
    settings = dict(
        game_name=game_name,
        devices=3,
        sessions_per_device=1,
        duration_s=1.0,
        seed=11,
        shard_size=3,
        profile_seeds=(1,),
        profile_duration_s=2.0,
        measure_energy=True,
        federate=True,
    )
    settings.update(overrides)
    return FleetSpec(**settings)


def _build_package(game_name: str, spec: FleetSpec, seeds=None):
    return CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
        game_name,
        seeds=list(seeds if seeds is not None else spec.profile_seeds),
        duration_s=spec.profile_duration_s,
    )


class TestDeviceEquivalence:
    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_device_results_pickle_identically_across_games(self, game_name):
        spec = _small_spec(game_name)
        package = _build_package(game_name, spec)
        config = SnipConfig()
        for device in range(spec.devices):
            batched = run_device(
                device, spec, package.selection, package.table, config
            )
            reference = run_device_reference(
                device, spec, package.selection, package.table, config
            )
            assert pickle.dumps(batched) == pickle.dumps(reference), (
                f"{game_name} device {device}: batched DeviceResult "
                f"diverged from the scalar reference"
            )

    def test_no_energy_federation_only_devices_identical(self):
        spec = _small_spec("candy_crush", measure_energy=False)
        package = _build_package(spec.game_name, spec)
        config = SnipConfig()
        for device in range(spec.devices):
            batched = run_device(
                device, spec, package.selection, package.table, config
            )
            reference = run_device_reference(
                device, spec, package.selection, package.table, config
            )
            assert pickle.dumps(batched) == pickle.dumps(reference)

    def test_challenger_cohort_devices_identical(self):
        spec = _small_spec(
            "candy_crush", devices=10, shard_size=5, challenger_fraction=0.5
        )
        cohorts = {spec.cohort_of(device) for device in range(spec.devices)}
        assert cohorts == {COHORT_CHAMPION, COHORT_CHALLENGER}, (
            "the spec must deal devices into both cohorts for this test"
        )
        champion = _build_package(spec.game_name, spec)
        challenger = _build_package(spec.game_name, spec, seeds=(2,))
        config = SnipConfig()
        for device in range(spec.devices):
            batched = run_device(
                device,
                spec,
                champion.selection,
                champion.table,
                config,
                challenger_selection=challenger.selection,
                challenger_table=challenger.table,
            )
            reference = run_device_reference(
                device,
                spec,
                champion.selection,
                champion.table,
                config,
                challenger_selection=challenger.selection,
                challenger_table=challenger.table,
            )
            assert pickle.dumps(batched) == pickle.dumps(reference), (
                f"device {device} ({spec.cohort_of(device)} cohort): "
                f"batched DeviceResult diverged from the scalar reference"
            )


class TestFleetReportEquivalence:
    def test_escape_hatch_routes_devices_through_reference(self):
        spec = _small_spec("candy_crush")
        package = _build_package(spec.game_name, spec)
        config = SnipConfig()
        restore = batching_enabled()
        disable_batching()
        try:
            assert not batching_enabled()
            routed = run_device(
                0, spec, package.selection, package.table, config
            )
        finally:
            if restore:
                enable_batching()
        reference = run_device_reference(
            0, spec, package.selection, package.table, config
        )
        assert pickle.dumps(routed) == pickle.dumps(reference)
        assert batching_enabled() == restore
