"""Serve-daemon cycle benchmarks (standalone script).

Times the supervisor's two operating regimes on a small fleet — cold
cycles (fresh profiles, real fleet work) and a full replay of the same
run directory (every stage served from the ledger) — checks the
latency/throughput gates (rows ``service`` in ``gates.py``), verifies
the crash-resume contract end to end (kill mid-run, resume, compare
ledger bytes against the uninterrupted run), and writes
``BENCH_service.json`` at the repo root.

The daemon is the production control loop: a cycle's wall time bounds
how fast the fleet's miss reports turn into refreshed tables, and
replay speed bounds restart time after a crash. The gates guard
against stage plumbing (ledger persistence, queue scans, lineage
walks) picking up accidental quadratic work as runs grow.

Run directly (CI's perf-smoke job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.service import ServiceConfig, SnipService

from gates import finish, parser

GAME = "colorphun"


class _Killed(Exception):
    """Simulated crash for the resume-identity check."""


def _config(quick: bool) -> ServiceConfig:
    return ServiceConfig(
        game_name=GAME,
        devices=4 if quick else 8,
        sessions_per_device=1,
        session_duration_s=2.0 if quick else 4.0,
        seed=0,
        shard_size=2,
        base_profile_seeds=(1,),
        profile_duration_s=3.0 if quick else 6.0,
        max_profile_seeds=4,
        seeds_per_cycle=1,
        ungated_cycles=1,
        eval_duration_s=3.0 if quick else 6.0,
    )


def bench_service(quick: bool) -> dict:
    cycles = 3 if quick else 6
    replays = 5 if quick else 20
    config = _config(quick)
    scratch = Path(tempfile.mkdtemp(prefix="bench-service-"))
    try:
        # -- cold: the full profile -> publish -> plan -> ship loop.
        service = SnipService(config, scratch / "cold")
        start = time.perf_counter()
        result = service.run(cycles=cycles)
        cold_s = time.perf_counter() - start
        assert result.cycles_completed == cycles
        reference = service.ledger.to_json()

        # -- replay: every stage already journalled; run() must
        # recognise completion without re-executing any of them.
        start = time.perf_counter()
        for _ in range(replays):
            SnipService(config, scratch / "cold").run(cycles=cycles)
        replay_s = time.perf_counter() - start

        # -- resume identity: kill mid-run, resume, compare bytes.
        def kill_late(cycle: int, stage: str, phase: str) -> None:
            if (cycle, stage, phase) == (cycles - 1, "publish", "pre"):
                raise _Killed()

        crashed = SnipService(
            config, scratch / "killed", stage_hook=kill_late
        )
        try:
            crashed.run(cycles=cycles)
            raise AssertionError("kill hook never fired")
        except _Killed:
            pass
        resumed = SnipService(config, scratch / "killed")
        resumed.run(cycles=cycles)
        resume_identical = resumed.ledger.to_json() == reference

        return {
            "cycles": cycles,
            "cycle_s": cold_s / cycles,
            "cycles_per_s": cycles / cold_s,
            "replay_run_s": replay_s / replays,
            "replay_runs_s": replays / replay_s,
            "resume_identical": resume_identical,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    quick = parser(__doc__).parse_args(argv).quick
    return finish("service", bench_service(quick), quick)


if __name__ == "__main__":
    sys.exit(main())
