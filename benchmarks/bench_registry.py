"""Microbenchmarks for the SnipPackage registry (standalone script).

Times the registry's three hot operations — publishing a candidate,
running the promotion pass over a populated slot, and resolving the
champion package — on a slot pre-loaded with versions, checks the
throughput gates (rows ``registry`` in ``gates.py``), and writes
``BENCH_registry.json`` at the repo root.

The registry sits on a fleet's control path (every staged rollout loads
state, judges, and re-saves), so these floors guard against the state
document or the promotion pass picking up accidental quadratic work as
slots grow.

Run directly (CI's perf-smoke job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_registry.py [--quick]
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time

from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.registry import PackageRegistry, PromotionPolicy
from repro.registry.records import PackageMetrics

from gates import finish, parser

GAME = "candy_crush"


def _metrics(index: int) -> PackageMetrics:
    """Monotonically improving metrics, so every promote pass wins."""
    return PackageMetrics(
        hit_rate=0.90,
        selection_accuracy=0.999,
        selected_fields=4,
        table_entries=12,
        table_bytes=624,
        energy_saved_fraction=0.20 + 0.001 * index,
    )


def bench_registry(quick: bool) -> dict:
    versions = 16 if quick else 64
    lookups = 20 if quick else 100
    config = SnipConfig()
    package = CloudProfiler(config, cache=None).build_package_from_sessions(
        GAME, seeds=[1], duration_s=8.0
    )
    root = tempfile.mkdtemp(prefix="bench-registry-")
    try:
        registry = PackageRegistry(root)
        # -- publish: one state rewrite + one payload store per call.
        start = time.perf_counter()
        for index in range(versions):
            entry, created = registry.publish(
                GAME, config, package, _metrics(index),
                source_digest=f"bench{index:027d}",
            )
            assert created, "synthetic digests must never collide"
        publish_s = time.perf_counter() - start

        # -- promote: judge + apply over the ever-growing slot.
        policy = PromotionPolicy()
        start = time.perf_counter()
        promoted = 0
        for index in range(versions):
            decision = registry.promote(
                GAME, config, version=index + 1, policy=policy
            )
            promoted += decision.promoted
        promote_s = time.perf_counter() - start
        assert promoted == versions, "ascending metrics must always win"

        # -- lookup: resolve the champion entry to its live package.
        start = time.perf_counter()
        for _ in range(lookups):
            state = registry.load_state(GAME, config)
            resolved = registry.load_package(state.champion())
            assert resolved.game_name == GAME
        lookup_s = time.perf_counter() - start

        return {
            "versions": versions,
            "publish_ops_s": versions / publish_s,
            "promote_ops_s": versions / promote_s,
            "lookup_ops_s": lookups / lookup_s,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    quick = parser(__doc__).parse_args(argv).quick
    return finish("registry", bench_registry(quick), quick)


if __name__ == "__main__":
    sys.exit(main())
