"""End-to-end benchmark of the SNIP simulator: fleets and the serve loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-energy --seed 1 --seconds 20 --trace 0

Workloads: ``fleet-energy``, ``fleet-federate``, ``serve-cycles`` (see
``perfbench/README.md``). ``--trace 0`` prints every end-to-end metric
(untraced); ``--trace 1`` runs the workload twice, untraced and with
the layer timers of ``perfbench/layers.py``, and prints the per-layer
metrics, the window time no span covers and the tracing overhead.
Every run checks the program's outputs. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Each measured process is fresh, with a fresh package-cache directory.
Model outputs are checked against ``perfbench/expected.json`` (written
by ``perfbench/record.py``). Files go to ``.perfbench/`` at the
repository root: stamped results under ``results/``, Chrome traces and
layer totals under ``traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata as importlib_metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("fleet-energy", "fleet-federate", "serve-cycles")

#: Set-ups per --trace 0 run whose median is setup_s (the measured
#: process's own set-up is one of them). Fleet set-up profiles 7 games
#: in about 6 s; serve set-up is imports alone, about 0.3 s, and varies
#: by a third from one process to the next, so it takes more samples.
SETUP_REPEATS = {"fleet-energy": 2, "fleet-federate": 2, "serve-cycles": 9}

#: Whole invocation budget; each child gets what is left of it.
BUDGET_S = 170.0

#: Environment switches that would change what is measured.
PINNED_ENV = ("REPRO_SNIP_NO_BATCH", "REPRO_SNIP_NO_CACHE", "REPRO_SNIP_CACHE_DIR")

COLD_STATE = (
    "every set-up and measured process is a fresh interpreter with a fresh "
    "REPRO_SNIP_CACHE_DIR, so the package cache and the process-wide memos "
    "(_FOLD_CACHES, _EVENT_MEMOS, game templates) start cold, as for one "
    "repro-snip invocation; inside serve-cycles the memos stay warm across "
    "cycles, as in the daemon"
)


class ChildFailed(Exception):
    pass


# -- run metadata ----------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def host_fingerprint() -> Dict[str, Any]:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib_metadata.version("numpy")
    except importlib_metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def bench_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(HERE.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- child processes ---------------------------------------------------------


def run_dir_of(args) -> Path:
    return OUT / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"


def run_child(
    args, phase: str, tag: str, deadline: float, *, trace: int = 0,
    checks: int = 1, extra: Optional[List[str]] = None,
) -> Dict[str, Any]:
    workdir = run_dir_of(args) / tag
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["REPRO_SNIP_CACHE_DIR"] = str(workdir / "package-cache")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase,
        "--trace", str(trace), "--checks", str(checks),
        "--workdir", str(workdir), "--out", str(out),
    ] + (extra or [])
    # Child stdout goes to our stderr: our stdout ends with the result.
    process = subprocess.Popen(
        command, cwd=str(ROOT), env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{tag}: exceeded the time budget") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0:
        raise ChildFailed(f"{tag}: exit code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


# -- metrics ---------------------------------------------------------------


def end_to_end(measured: Dict[str, Any]) -> Dict[str, float]:
    """Rates are medians over the window's rounds, so a few rounds the
    host slowed down move them less than a whole-window total would."""
    rounds = measured["rounds"]

    def per_round(key: str) -> float:
        return statistics.median(r[key] / r["wall_s"] for r in rounds)

    return {
        "events_per_s": per_round("events"),
        "devices_per_s": per_round("devices"),
        "cycle_s_p50": statistics.median(measured["cycle_walls"]),
        "cycles_per_s": per_round("cycles"),
    }


RATES = ("events_per_s", "devices_per_s", "cycles_per_s")

UNITS = {
    "events_per_s": "1/s",
    "devices_per_s": "1/s",
    "cycle_s_p50": "s",
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def check_expected(args, measured: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Model outputs must equal the ones ``expected.json`` pins.

    The golden job is checked on every run; round 0's outputs are
    checked when the seed is one of the recorded ones.
    """
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    checks = []
    if measured["golden"] is not None:
        checks.append({
            "check": "expected:golden",
            "ok": measured["golden"] == expected["golden"].get(args.workload),
        })
    recorded = expected["seeds"].get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        checks.append({
            "check": f"expected:seed{args.seed}", "ok": measured["outputs"] == recorded,
        })
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    rules = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed: one process, next cycle starts after the last ends",
        "cold_state": COLD_STATE,
        "git_sha": git_sha(),
        "bench_digest": bench_digest(),
        "host": host_fingerprint(),
    }
    OUT.mkdir(exist_ok=True)
    run_dir = run_dir_of(args)
    try:
        if args.trace == 0:
            setups = [
                run_child(args, "setup", f"setup{i}", deadline)["setup_s"]
                for i in range(1, SETUP_REPEATS[args.workload])
            ]
            measured = run_child(args, "measure", "measure", deadline)
            setups.append(measured["setup_s"])
            values = end_to_end(measured)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = measured["peak_rss_bytes"] / 1e6
            metrics = {
                name: {"value": values[name], "unit": UNITS[name]} for name in UNITS
            }
            rules["setup_samples_s"] = setups
        else:
            reference = run_child(args, "measure", "untraced", deadline, checks=0)
            meta_path = run_dir / "meta.json"
            meta_path.write_text(json.dumps(rules), encoding="utf-8")
            trace_out = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
            measured = run_child(
                args, "measure", "traced", deadline, trace=1,
                extra=["--trace-out", str(trace_out), "--meta", str(meta_path)],
            )
            traced, untraced = end_to_end(measured), end_to_end(reference)
            metrics = dict(measured["layers"])
            metrics["trace.overhead_events_per_s"] = {
                "value": traced["events_per_s"] - untraced["events_per_s"], "unit": "1/s",
            }
            metrics["trace.overhead_cycle_s_p50"] = {
                "value": traced["cycle_s_p50"] - untraced["cycle_s_p50"], "unit": "s",
            }
            rules["trace_file"] = str(trace_out.relative_to(ROOT))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = list(measured["checks"]) + check_expected(args, measured)
    failed_checks = sum(1 for check in checks if not check["ok"])
    attempted = measured["shard_attempts"] + len(measured["cycle_walls"]) + len(checks)
    failed = measured["failures"] + failed_checks
    outputs = measured["outputs"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(measured['cycle_walls'])} cycles in "
          f"{measured['window_s']:.2f} s")
    for name, metric in metrics.items():
        note = ""
        if name == "cycle_s_p50":
            note = f"  (median of {len(measured['cycle_walls'])} cycles)"
        elif name in RATES:
            note = f"  (median of {len(measured['rounds'])} rounds)"
        print(f"  {name:<32} {metric['value']:>16.6f} {metric['unit']}{note}")
    print(f"  {'error_rate':<32} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} operations)")
    for name in ("energy_saved_pct", "hit_rate_pct"):
        if name in outputs:
            print(f"  {name:<32} {outputs[name]:>16.6f} %")
        else:
            print(f"  {name:<32} {'n/a':>16} %  (energy off)")
    for game, entries in outputs["table_entries"].items():
        print(f"  table_entries.{game:<18} {entries:>16d} count")
    for name in ("report_digest", "ledger_digest"):
        if name in outputs:
            print(f"  {name:<32} {outputs[name]}")
    for check in checks:
        print(f"  check {check['check']:<40} {'ok' if check['ok'] else 'FAILED'}")
    if not any(check["check"].startswith("expected:seed") for check in checks):
        print(f"  (seed {args.seed} has no outputs in {EXPECTED.name}; only the golden job is pinned)")

    (OUT / "results").mkdir(exist_ok=True)
    stamped = {
        "rules": dict(rules, spec=measured["spec"], code_digest=measured["code_digest"]),
        "metrics": metrics,
        "error_rate": failed / attempted,
        "outputs": outputs,
        "checks": checks,
        "golden_outputs": measured["golden"],
        "peak_rss_parts_bytes": measured["peak_rss_parts"],
        "cycle_walls_s": measured["cycle_walls"],
        "rounds": measured["rounds"],
    }
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(stamped, indent=2, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": failed_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
