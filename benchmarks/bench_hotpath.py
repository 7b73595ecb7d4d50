"""Microbenchmarks for the vectorized hot path (standalone script).

Times the optimised implementations against their in-source golden
references — batched tree/forest prediction vs. per-row walks, in-place
permutation importance vs. the full-matrix-copy variant, compiled
runtime probes vs. per-event string parsing, and a warm package-cache
``SnipScheme.prepare`` vs. a cold profile — checks the equivalence and
speedup gates (rows ``hotpath`` in ``gates.py``), and writes
``BENCH_hotpath.json`` at the repo root.

Run directly (CI's perf-smoke job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]
"""

from __future__ import annotations

import pickle
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.core.config import SnipConfig
from repro.core.package_cache import PackageCache
from repro.core.profiler import CloudProfiler
from repro.core.runtime import SnipRuntime
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.ml.forest import RandomForestClassifier
from repro.ml.permutation import (
    permutation_importance,
    permutation_importance_reference,
)
from repro.ml.tree import DecisionTreeClassifier
from repro.schemes.snip_scheme import SnipScheme
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_events

from gates import finish, parser


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _synthetic(rows: int, cols: int, classes: int = 5):
    rng = np.random.default_rng(42)
    features = rng.normal(size=(rows, cols))
    # Labels depend on a few columns so the trees have structure to find.
    labels = (
        (features[:, 0] > 0).astype(np.int64)
        + 2 * (features[:, 1] + features[:, 2] > 0).astype(np.int64)
    ) % classes
    weights = rng.integers(1, 1000, size=rows).astype(np.float64)
    return features, labels, weights


def bench_tree_predict(quick: bool, repeats: int) -> dict:
    rows, cols = (300, 32) if quick else (1000, 64)
    features, labels, weights = _synthetic(rows, cols)
    tree = DecisionTreeClassifier(max_depth=14, min_samples_leaf=2, seed=3)
    tree.fit(features, labels, weights)
    fast = tree.predict(features)
    reference = tree.predict_reference(features)
    assert np.array_equal(fast, reference), "tree predict diverged from reference"
    fast_s = _time(lambda: tree.predict(features), repeats)
    ref_s = _time(lambda: tree.predict_reference(features), repeats)
    return {"fast_s": fast_s, "reference_s": ref_s, "speedup": ref_s / fast_s}


def bench_forest_predict(quick: bool, repeats: int) -> dict:
    rows, cols = (300, 32) if quick else (1000, 64)
    trees = 10 if quick else 25
    features, labels, weights = _synthetic(rows, cols)
    forest = RandomForestClassifier(
        n_trees=trees, max_depth=14, min_samples_leaf=2, seed=3
    )
    forest.fit(features, labels, weights)
    fast = forest.predict(features)
    reference = forest.predict_reference(features)
    assert np.array_equal(fast, reference), "forest predict diverged from reference"
    fast_s = _time(lambda: forest.predict(features), repeats)
    ref_s = _time(lambda: forest.predict_reference(features), repeats)
    return {"fast_s": fast_s, "reference_s": ref_s, "speedup": ref_s / fast_s}


class _SeedPredictModel:
    """A forest restricted to its per-row reference walks.

    The PFI baseline must reproduce the *seed* cost profile — full
    feature-matrix copies feeding per-row tree descents — otherwise the
    reference run would silently benefit from the vectorized arena.
    """

    def __init__(self, forest: RandomForestClassifier) -> None:
        self._forest = forest

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._forest.predict_reference(features)


def bench_pfi(quick: bool, repeats: int) -> dict:
    rows, cols = (300, 32) if quick else (1000, 64)
    trees = 10 if quick else 25
    features, labels, weights = _synthetic(rows, cols)
    names = [f"f{index}" for index in range(cols)]
    forest = RandomForestClassifier(
        n_trees=trees, max_depth=14, min_samples_leaf=2, seed=3
    )
    forest.fit(features, labels, weights)

    def run_fast():
        return permutation_importance(
            forest, features, labels, names,
            rng=np.random.default_rng(7), repeats=2, sample_weight=weights,
        )

    def run_reference():
        return permutation_importance_reference(
            _SeedPredictModel(forest), features, labels, names,
            rng=np.random.default_rng(7), repeats=2, sample_weight=weights,
        )

    assert run_fast() == run_reference(), "PFI diverged from reference"
    fast_s = _time(run_fast, repeats)
    ref_s = _time(run_reference, repeats)
    return {"fast_s": fast_s, "reference_s": ref_s, "speedup": ref_s / fast_s}


def bench_runtime_probe(quick: bool, repeats: int) -> dict:
    """Batched ``probe_batch`` vs the scalar key-build + lookup loop.

    The scalar reference is what ``deliver`` does per event without
    batching: parse the selection's field reads against the live event
    and probe the memo table once. ``probe_batch`` groups the session
    by event type, builds each type's key column with the compiled
    readers, and gathers the entries in one ``lookup_batch`` pass.
    """
    duration = 10.0 if quick else 30.0
    config = SnipConfig()
    package = CloudProfiler(config, cache=None).build_package_from_sessions(
        "candy_crush", seeds=[1], duration_s=duration
    )
    runtime = SnipRuntime(
        snapdragon_821(), create_game("candy_crush", GAME_CONTENT_SEED),
        package.table, config,
    )
    events = list(generate_events("candy_crush", seed=9, duration_s=duration))
    known = [event for event in events if package.table.knows(event.event_type)]
    table = package.table

    def run_fast():
        return runtime.probe_batch(known)

    def run_reference():
        return [
            table.lookup(event.event_type, runtime.live_key_reference(event))
            for event in known
        ]

    keys, entries, hit_mask = run_fast()
    reference_entries = run_reference()
    assert keys == [
        runtime.live_key_reference(event) for event in known
    ], "batched probe keys diverged from reference"
    assert entries == reference_entries, (
        "batched probe entries diverged from reference"
    )
    assert list(hit_mask) == [
        entry is not None for entry in reference_entries
    ], "batched hit mask diverged from reference"
    fast_s = _time(run_fast, repeats)
    ref_s = _time(run_reference, repeats)
    return {
        "events": len(known),
        "hits": int(hit_mask.sum()),
        "fast_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s,
    }


def bench_session_batch(quick: bool, repeats: int) -> dict:
    """Batched ``run_device`` vs the scalar ``run_device_reference``.

    Times the whole columnar session pipeline — structure-of-arrays
    trace assembly, batched dispatch and probes, columnar energy
    ledgers — against the per-event-object reference, after asserting
    every :class:`DeviceResult` pickles byte-identically.
    """
    from repro.core.config import SnipConfig as _SnipConfig
    from repro.fleet.spec import FleetSpec
    from repro.fleet.work import run_device, run_device_reference

    devices = 24 if quick else 64
    spec = FleetSpec(
        game_name="candy_crush",
        devices=devices,
        sessions_per_device=1,
        duration_s=0.25 if quick else 1.0,
        seed=11,
        shard_size=devices,
        profile_seeds=(1,),
        profile_duration_s=3.0,
        measure_energy=True,
        federate=True,
    )
    config = _SnipConfig()
    package = CloudProfiler(config, cache=None).build_package_from_sessions(
        spec.game_name,
        seeds=list(spec.profile_seeds),
        duration_s=spec.profile_duration_s,
    )

    def run_fast():
        return [
            run_device(device, spec, package.selection, package.table, config)
            for device in range(devices)
        ]

    def run_reference():
        return [
            run_device_reference(
                device, spec, package.selection, package.table, config
            )
            for device in range(devices)
        ]

    # Byte-identity first; this also warms the process-wide fold/event
    # memos so the timed window measures steady state.
    fast_results = run_fast()
    reference_results = run_reference()
    for fast_result, reference_result in zip(fast_results, reference_results):
        assert pickle.dumps(fast_result) == pickle.dumps(reference_result), (
            "batched DeviceResult diverged from reference"
        )
    fast_s = _time(run_fast, repeats)
    ref_s = _time(run_reference, repeats)
    return {
        "devices": devices,
        "fast_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s,
    }


def bench_package_cache(quick: bool) -> dict:
    seeds = (1,) if quick else (1, 2, 3)
    duration = 15.0 if quick else 45.0
    cache_dir = tempfile.mkdtemp(prefix="bench-hotpath-cache-")
    try:
        cache = PackageCache(cache_dir)

        def prepare():
            scheme = SnipScheme(
                profile_seeds=seeds, profile_duration_s=duration, cache=cache
            )
            return scheme.prepare("candy_crush")

        start = time.perf_counter()
        cold_package = prepare()
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_package = prepare()
        warm_s = time.perf_counter() - start
        assert warm_package.table_bytes == cold_package.table_bytes
        assert warm_package.profile_events == cold_package.profile_events
        return {"cold_s": cold_s, "warm_s": warm_s, "speedup": cold_s / warm_s}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv=None) -> int:
    quick = parser(__doc__).parse_args(argv).quick
    repeats = 3 if quick else 5
    runs = {
        "tree_predict": bench_tree_predict(quick, repeats),
        "forest_predict": bench_forest_predict(quick, repeats),
        "pfi": bench_pfi(quick, repeats),
        "runtime_probe": bench_runtime_probe(quick, repeats),
        "session_batch": bench_session_batch(quick, repeats),
        "package_cache": bench_package_cache(quick),
    }
    metrics = {name: outcome["speedup"] for name, outcome in runs.items()}
    return finish("hotpath", metrics, quick, runs)


if __name__ == "__main__":
    sys.exit(main())
