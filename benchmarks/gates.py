"""The gate table of the standalone ``bench_*.py`` scripts.

Each script measures, collects what it measured into one flat metrics
dict, and hands it to :func:`finish`. ``finish`` checks every row of
:data:`GATES` for that benchmark, prints one verdict per row, writes
``BENCH_<benchmark>.json`` at the repo root and returns the exit code:
1 when any row fails. A row whose metric the benchmark did not produce
raises instead of passing.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from pathlib import Path

REPORT_DIR = Path(__file__).resolve().parent.parent

OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

#: ``(benchmark, metric, op, quick bound, full bound)``. The quick
#: bounds are CI's perf-smoke on shared, noisy runners; the full bounds
#: gate the headline run.
GATES = (
    # Quick mode checks only that the fast paths win. The probe and
    # session references share the process-wide fold and event memos
    # with the batched path, so those floors gate only the residual
    # columnar win; the end-to-end speedup is the fleet row below.
    ("hotpath", "forest_predict", ">=", 1.5, 5.0),
    ("hotpath", "pfi", ">=", 1.5, 3.0),
    ("hotpath", "runtime_probe", ">=", 1.3, 1.6),
    ("hotpath", "session_batch", ">=", 1.2, 1.4),
    ("hotpath", "package_cache", ">=", 3.0, 10.0),
    # Registry and service floors sit far under measured rates, so only
    # a real regression trips them: state handling or ledger
    # persistence going quadratic, a stage re-executing on replay.
    ("registry", "publish_ops_s", ">=", 5.0, 10.0),
    ("registry", "promote_ops_s", ">=", 10.0, 20.0),
    ("registry", "lookup_ops_s", ">=", 5.0, 10.0),
    ("service", "cycles_per_s", ">=", 0.2, 0.1),
    ("service", "replay_runs_s", ">=", 5.0, 5.0),
    ("service", "resume_identical", "==", True, True),
    ("fleet", "min_devices_per_s", ">=", 60.0, 60.0),
    # Peak RSS over a 10x device jump: linear growth would be ~10x.
    ("fleet", "rss_growth", "<=", 3.0, 3.0),
    ("fleet", "max_rss_bytes", "<=", 800_000_000, 1_500_000_000),
    ("fleet", "batch_speedup", ">=", 5.0, 5.0),
    # The live-shard gauge samples right after a shard is inserted and
    # before the fold drains it: a run that buffers nothing still peaks
    # at 1, and one keeping max_live_shards in flight shows one more.
    ("fleet", "min_live_shards_peak", ">=", 1, 1),
    ("fleet", "live_shards_over_cap", "<=", 1, 1),
    ("fleet", "worker_failures", "==", 0, 0),
    ("fleet", "serial_queue_identical", "==", True, True),
    ("fleet", "batched_scalar_identical", "==", True, True),
)


def parser(description: str) -> argparse.ArgumentParser:
    """The ``--quick`` command line every standalone benchmark takes."""
    arguments = argparse.ArgumentParser(description=description)
    arguments.add_argument(
        "--quick", action="store_true",
        help="smaller inputs and the quick bounds (CI smoke mode)",
    )
    return arguments


def _show(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else repr(value)


def finish(benchmark: str, metrics: dict, quick: bool, runs=None) -> int:
    """Gate ``metrics``, write ``BENCH_<benchmark>.json``, return the exit code.

    ``runs`` is the raw per-run detail, recorded in the report as is.
    """
    rows = [row for row in GATES if row[0] == benchmark]
    if not rows:
        raise KeyError(f"no gates for benchmark {benchmark!r}")
    gates = []
    for _, metric, op, quick_bound, full_bound in rows:
        if metric not in metrics:
            raise KeyError(f"{benchmark}: gated metric {metric!r} was not measured")
        bound = quick_bound if quick else full_bound
        measured = metrics[metric]
        ok = bool(OPS[op](measured, bound))
        gates.append(
            {"metric": metric, "op": op, "bound": bound, "measured": measured, "ok": ok}
        )
        print(
            f"{'ok' if ok else 'FAIL':4s}  {metric:24s} {_show(measured):>12s} "
            f"{op} {_show(bound)}",
            flush=True,
        )

    report = {"benchmark": benchmark, "quick": quick, "metrics": metrics, "gates": gates}
    if runs is not None:
        report["runs"] = runs
    path = REPORT_DIR / f"BENCH_{benchmark}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    failed = [
        f"{gate['metric']}: {_show(gate['measured'])} not {gate['op']} {_show(gate['bound'])}"
        for gate in gates
        if not gate["ok"]
    ]
    if failed:
        print("FAILED gates: " + "; ".join(failed), file=sys.stderr)
        return 1
    print("all gates passed")
    return 0
