"""Shared fixtures for the service-daemon tests.

Service cycles run a real profile -> publish -> fleet pipeline, so the
configs here are as small as the pipeline allows and every daemon in
the module shares one package cache (profiles are pure functions of
their seeds, so cross-run sharing is safe and skips re-profiling).
"""

from __future__ import annotations

import pytest

from repro.core.package_cache import PackageCache
from repro.registry.store import PackageRegistry
from repro.service import ServiceConfig, SnipService


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory):
    """One content-addressed package cache shared by every service run."""
    return PackageCache(tmp_path_factory.mktemp("service-cache"))


def _tiny_config():
    """The smallest service config that still exercises every stage."""
    return ServiceConfig(
        game_name="colorphun",
        devices=6,
        sessions_per_device=1,
        session_duration_s=3.0,
        seed=0,
        shard_size=2,
        base_profile_seeds=(1,),
        profile_duration_s=5.0,
        max_profile_seeds=4,
        seeds_per_cycle=1,
        ungated_cycles=1,
        eval_duration_s=5.0,
    )


@pytest.fixture
def tiny_config():
    """The smallest full-stage config (see :func:`_tiny_config`)."""
    return _tiny_config()


def make_service(config, run_dir, cache, **kwargs):
    """A daemon whose registry payloads resolve through ``cache``."""
    registry = kwargs.pop("registry", None)
    if registry is None:
        registry = PackageRegistry(run_dir / "registry", cache=cache)
    return SnipService(config, run_dir, registry=registry, **kwargs)


@pytest.fixture(scope="session")
def reference_ledger(tmp_path_factory, shared_cache):
    """An uninterrupted 3-cycle run's canonical ledger bytes.

    Session-scoped: the crash-resume tests compare several interrupted
    runs against this one baseline instead of re-running it each time.
    """
    run_dir = tmp_path_factory.mktemp("service-reference") / "run"
    service = make_service(_tiny_config(), run_dir, shared_cache)
    result = service.run(cycles=3)
    assert result.cycles_completed == 3
    return service.ledger.to_json()
