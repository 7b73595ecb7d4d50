"""The three benchmark workloads: seeded inputs, set-up, cycles, checks.

Every workload is a closed loop driven from one process: a *cycle* is
started only after the previous one finished, and the timed window
runs whole rounds until ``--seconds`` have passed. A cycle is

* ``fleet-energy``: one single-device ``FleetEngine`` fleet per game
  (all 7), energy on, federation on, one 60 s session per device;
* ``fleet-federate``: one many-device fleet per game (all 7), energy
  off, federation on, ``QueueFleetExecutor`` workers, checkpointed;
* ``serve-cycles``: one ``SnipService`` daemon cycle.

A fleet round is one cycle; a serve round is a fresh daemon run of
SERVE_ROUND_CYCLES cycles.

All inputs (fleet specs, service config) are pure functions of the
seed, except that the fleet packages are profiled from PACKAGE_SEED's
recordings; the program only ever sees the generated specs. Every run also
plays a small *golden* job whose inputs come from GOLDEN_SEED, whatever
``--seed`` says, so ``expected.json`` can pin its outputs for any run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import SnipConfig
from repro.core.fastpath import disable_batching, enable_batching
from repro.fleet import (
    FleetEngine,
    FleetSpec,
    QueueFleetExecutor,
    SerialExecutor,
    TelemetryBus,
    run_device,
)
from repro.fleet.telemetry import STAGE_FINISHED
from repro.games.registry import GAME_NAMES
from repro.service import ServiceConfig, SnipService
from repro.service.ledger import canonical_json
from repro.users.population import Population

perf = time.perf_counter

#: Paper-length sessions, as in the fig2/fig11 drivers.
PAPER_SESSION_S = 60.0
#: Cloud profile behind every shipped fleet package (one seeded
#: recording per game, replayed, PFI'd and tabled in set-up).
FLEET_PROFILE_S = 6.0
#: fleet-federate: many devices, short sessions, two pool workers.
FEDERATE_DEVICES = 64
FEDERATE_SESSION_S = 2.0
FEDERATE_SHARD_SIZE = 8
FEDERATE_JOBS = 2
#: Seed of the golden job's inputs, and the games it plays on the
#: fleet workloads (the two with the largest tables).
GOLDEN_SEED = 0
#: Seed of the fleet packages' profile recordings. One shipped package
#: per game serves every player, so packages do not vary with --seed;
#: that keeps set-up and table sizes, and with them set-up time and
#: memory, the same for every seed.
PACKAGE_SEED = 0
GOLDEN_GAMES = ("greenwall", "race_kings")
#: Games of the first round whose sampled devices are re-run through
#: the scalar oracle (device 0, plus the middle and last on federate).
ORACLE_GAMES = 2
#: serve-cycles: one game with a non-trivial table; each round is a
#: fresh daemon run of this many cycles; the golden daemon runs
#: SERVE_GOLDEN_CYCLES.
SERVE_GAME = "race_kings"
SERVE_ROUND_CYCLES = 4
SERVE_GOLDEN_CYCLES = 2


def derive(seed: int, *parts: Any) -> int:
    """A 31-bit seed derived from the workload seed and a label."""
    text = ":".join(str(part) for part in (seed,) + parts)
    digest = hashlib.blake2b(f"perfbench:{text}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % 2**31


def _canonical(result: Any) -> bytes:
    """Pickle bytes after one pickle round trip.

    A result that came back from a pool worker has been through one
    round trip already, which changes object sharing (and with it the
    pickle memo) but no value; normalising both sides the same way
    keeps the comparison byte-exact for serial and pooled runs alike.
    """
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def digest_text(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CycleOutcome:
    """What one closed-loop cycle did, timed by the benchmark."""

    wall_s: float = 0.0
    events: int = 0
    devices: int = 0
    shard_attempts: int = 0
    failures: int = 0


class FleetWorkload:
    """``fleet-energy`` and ``fleet-federate``."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.energy = name == "fleet-energy"
        self.config = SnipConfig()
        self.packages: Dict[str, Any] = {}
        #: Cycle 0's reports and oracle samples, kept for the checks.
        self.first_reports: Dict[str, Any] = {}
        self.samples: List[Tuple[FleetSpec, Any]] = []
        self.sample_games = self._sample_games()

    # -- inputs ------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        spec = self.spec(0, GAME_NAMES[0])
        return {
            "workload": self.name,
            "games": list(GAME_NAMES),
            "cycle": "one FleetEngine fleet per game, all games in order",
            "devices_per_fleet": spec.devices,
            "session_s": spec.duration_s,
            "archetypes": "regular only" if self.energy else "population mix",
            "shard_size": spec.shard_size,
            "measure_energy": spec.measure_energy,
            "federate": spec.federate,
            "executor": "serial" if self.energy else f"queue(jobs={self._jobs()})",
            "checkpoint": not self.energy,
            "profile_duration_s": spec.profile_duration_s,
            "profile_seeds": "one per game, derived from PACKAGE_SEED",
        }

    def _jobs(self) -> int:
        return min(FEDERATE_JOBS, os.cpu_count() or 1)

    def _fleet_seed(self, seed: int, cycle: int, game: str) -> int:
        """fleet-energy deals only 'regular' players: nominal tempo, so
        every session is exactly the paper's 60 s and cycles cost the
        same whatever the seed; the seed still picks the gestures."""
        if not self.energy:
            return derive(seed, "fleet", cycle, game)
        attempt = 0
        while True:
            candidate = derive(seed, "fleet", cycle, game, attempt)
            if Population(seed=candidate).archetype_of(0).name == "regular":
                return candidate
            attempt += 1

    def spec(self, cycle: int, game: str, seed: Optional[int] = None) -> FleetSpec:
        common = dict(
            game_name=game,
            seed=self._fleet_seed(self.seed if seed is None else seed, cycle, game),
            sessions_per_device=1,
            profile_seeds=(derive(PACKAGE_SEED, "profile", game) % 100_000,),
            profile_duration_s=FLEET_PROFILE_S,
            federate=True,
        )
        if self.energy:
            return FleetSpec(
                devices=1, duration_s=PAPER_SESSION_S, shard_size=1,
                measure_energy=True, **common,
            )
        return FleetSpec(
            devices=FEDERATE_DEVICES, duration_s=FEDERATE_SESSION_S,
            shard_size=FEDERATE_SHARD_SIZE, measure_energy=False, **common,
        )

    def _sample_games(self) -> List[str]:
        start = derive(self.seed, "oracle") % len(GAME_NAMES)
        return [GAME_NAMES[(start + i) % len(GAME_NAMES)] for i in range(ORACLE_GAMES)]

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Profile every game's package (cold cache) before the window."""
        for game in GAME_NAMES:
            engine = FleetEngine(self.spec(0, game), config=self.config)
            self.packages[game] = engine.build_package()
        if not self.energy:
            (self.workdir / "checkpoints").mkdir(parents=True, exist_ok=True)

    # -- one job -----------------------------------------------------------

    def run_job(
        self, spec: FleetSpec, checkpoint: Optional[Path],
        observer: Optional[Callable] = None,
    ):
        telemetry = TelemetryBus(history_limit=16)
        executor = (
            SerialExecutor() if self.energy else QueueFleetExecutor(jobs=self._jobs())
        )
        engine = FleetEngine(
            spec,
            executor=executor,
            config=self.config,
            telemetry=telemetry,
            checkpoint=checkpoint,
            cache=None,
            package=self.packages[spec.game_name],
            shard_observer=observer,
        )
        return engine.run(), telemetry.counters

    def _checkpoint(self, job: str, game: str) -> Optional[Path]:
        if self.energy:
            return None
        return self.workdir / "checkpoints" / f"{job}-{game}"

    def run_round(self, cycle: int) -> List[CycleOutcome]:
        """A fleet round is one cycle: every game's fleet, in order."""
        outcome = CycleOutcome()
        start = perf()
        for game in GAME_NAMES:
            spec = self.spec(cycle, game)
            observer = None
            if cycle == 0 and game in self.sample_games:
                wanted = self._oracle_ids(spec)

                def observer(shard, spec=spec, wanted=wanted):
                    for result in shard.device_results:
                        if result.device_id in wanted:
                            self.samples.append((spec, result))

            report, counters = self.run_job(
                spec, self._checkpoint(f"c{cycle}", game), observer
            )
            if cycle == 0:
                self.first_reports[game] = report
            outcome.events += report.totals.events
            outcome.devices += report.totals.devices
            outcome.shard_attempts += counters.shards_done + counters.retries
            outcome.failures += counters.worker_failures
        outcome.wall_s = perf() - start
        return [outcome]

    def _oracle_ids(self, spec: FleetSpec) -> Tuple[int, ...]:
        if self.energy:
            return (0,)
        return (0, spec.devices // 2, spec.devices - 1)

    # -- output checks -----------------------------------------------------

    def checks(self) -> List[Dict[str, Any]]:
        results = []
        # 1. Sampled devices re-run through the scalar reference path
        #    must pickle byte-identically to what the window produced.
        disable_batching()
        try:
            for spec, result in self.samples:
                package = self.packages[spec.game_name]
                reference = run_device(
                    result.device_id, spec, package.selection, package.table,
                    self.config,
                )
                same = _canonical(reference) == _canonical(result)
                results.append({
                    "check": f"oracle:{spec.game_name}:device{result.device_id}",
                    "ok": same,
                })
        finally:
            enable_batching()
        expected = sum(
            len(self._oracle_ids(self.spec(0, game))) for game in self.sample_games
        )
        if len(self.samples) != expected:
            results.append({"check": "oracle:sampled", "ok": False})
        return results

    def outputs(self) -> Dict[str, Any]:
        """Deterministic model outputs of cycle 0 (seed-determined)."""
        return self._outputs(self.first_reports)

    def golden_outputs(self) -> Dict[str, Any]:
        """Outputs of the GOLDEN_SEED cycle-0 jobs of GOLDEN_GAMES."""
        reports = {
            game: self.run_job(
                self.spec(0, game, GOLDEN_SEED), self._checkpoint("golden", game)
            )[0]
            for game in GOLDEN_GAMES
        }
        return self._outputs(reports)

    def _outputs(self, by_game: Dict[str, Any]) -> Dict[str, Any]:
        reports = list(by_game.values())
        out: Dict[str, Any] = {
            "report_digest": digest_text(
                "\n".join(report.to_json() for report in reports)
            ),
            "table_entries": {
                game: report.table_entries for game, report in by_game.items()
            },
        }
        if self.energy:
            snip = sum(report.totals.snip_joules for report in reports)
            baseline = sum(report.totals.baseline_joules for report in reports)
            hits = sum(report.totals.hits for report in reports)
            misses = sum(report.totals.misses for report in reports)
            out["energy_saved_pct"] = 100.0 * (1.0 - snip / baseline)
            out["hit_rate_pct"] = 100.0 * hits / (hits + misses)
        return out

    def worker_processes(self) -> int:
        return 0 if self.energy else self._jobs()

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir / "checkpoints", ignore_errors=True)


class ServeWorkload:
    """``serve-cycles``: the daemon's profile -> publish -> ship loop.

    A round is one ``SnipService.run(cycles=SERVE_ROUND_CYCLES)`` in a
    fresh run directory, so its registry and package cache start cold
    and every cycle re-profiles a corpus one adopted seed larger. Left
    running, the daemon converges to cycles that re-ship a cached
    package and never reach PFI; fresh rounds keep the cloud side in
    the window. The process-wide memos stay warm across cycles and
    rounds, as in the daemon.
    """

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.telemetry = TelemetryBus(history_limit=16)
        self.first: Optional[SnipService] = None

    def service_config(self, round_index: int) -> ServiceConfig:
        return ServiceConfig(
            game_name=SERVE_GAME,
            devices=24,
            sessions_per_device=1,
            session_duration_s=2.5,
            seed=derive(self.seed, "serve", round_index),
            shard_size=4,
            base_profile_seeds=(derive(self.seed, "serve-profile", round_index) % 100_000,),
            profile_duration_s=6.0,
            max_profile_seeds=SERVE_ROUND_CYCLES,
            seeds_per_cycle=1,
            ungated_cycles=1,
            measure_candidate_energy=True,
            eval_seed=derive(self.seed, "serve-eval", round_index) % 100_000,
            eval_duration_s=8.0,
        )

    def describe(self) -> Dict[str, Any]:
        config = asdict(self.service_config(0))
        for derived in ("seed", "base_profile_seeds", "eval_seed"):
            config[derived] = "derived from the seed and the round"
        return {
            "workload": self.name,
            "cycle": "one SnipService cycle: ingest, profile, publish, plan, ship",
            "round": f"SnipService.run(cycles={SERVE_ROUND_CYCLES}) in a fresh run dir",
            "service": config,
            "executor": "serial ship fleet, checkpointed per cycle",
            "memos": "warm across cycles and rounds, as in the daemon",
        }

    def setup(self) -> None:
        (self.workdir / "serve").mkdir(parents=True, exist_ok=True)

    def _service(self, round_index: int) -> SnipService:
        return SnipService(
            self.service_config(round_index),
            self.workdir / "serve" / f"round{round_index}",
            telemetry=self.telemetry,
        )

    def run_round(self, round_index: int) -> List[CycleOutcome]:
        service = self._service(round_index)
        if round_index == 0:
            self.first = service
        outcomes = []
        for cycle in range(SERVE_ROUND_CYCLES):
            outcome = CycleOutcome()
            before = self.telemetry.snapshot()
            start = perf()
            service.run(cycles=cycle + 1)
            outcome.wall_s = perf() - start
            ship = service.ledger.stage(cycle, "ship")
            outcome.events = ship["events"]
            outcome.devices = ship["devices"]
            after = self.telemetry.snapshot()
            outcome.shard_attempts = (
                after["shards_done"] - before["shards_done"]
                + after["retries"] - before["retries"]
            )
            outcome.failures = after["worker_failures"] - before["worker_failures"]
            outcomes.append(outcome)
        return outcomes

    def checks(self) -> List[Dict[str, Any]]:
        return []

    def outputs(self) -> Dict[str, Any]:
        """Round 0's journal and model outputs (seed-determined)."""
        return self._outputs(self.first, SERVE_ROUND_CYCLES)

    def golden_outputs(self) -> Dict[str, Any]:
        """A fresh GOLDEN_SEED daemon's first SERVE_GOLDEN_CYCLES cycles."""
        golden = ServeWorkload(self.name, GOLDEN_SEED, self.workdir / "golden")
        golden.setup()
        service = golden._service(0)
        service.run(cycles=SERVE_GOLDEN_CYCLES)
        out = self._outputs(service, SERVE_GOLDEN_CYCLES)
        golden.cleanup()
        return out

    @staticmethod
    def _outputs(service: SnipService, cycles: int) -> Dict[str, Any]:
        ledger = service.ledger
        ships = [ledger.stage(i, "ship") for i in range(cycles)]
        hits = sum(ship["hits"] for ship in ships)
        misses = sum(ship["misses"] for ship in ships)
        return {
            "ledger_digest": digest_text(
                "\n".join(canonical_json(ledger.cycle(i)) for i in range(cycles))
            ),
            "table_entries": {
                f"{SERVE_GAME}@cycle{i}": ledger.stage(i, "profile")["table_entries"]
                for i in range(cycles)
            },
            "energy_saved_pct": 100.0 * sum(s["savings"] for s in ships) / len(ships),
            "hit_rate_pct": 100.0 * hits / (hits + misses),
        }

    def stage_spans(self, recorder) -> None:
        """Feed the daemon's STAGE_FINISHED telemetry into the trace."""

        def on_event(event) -> None:
            if event.kind == STAGE_FINISHED:
                end = perf()
                recorder.observed_span(
                    f"service.{event.payload['stage']}",
                    end - event.payload["wall_s"], end, event.payload["cycle"],
                )

        self.telemetry.subscribe(on_event)

    def worker_processes(self) -> int:
        return 0

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir / "serve", ignore_errors=True)
        shutil.rmtree(self.workdir / "golden", ignore_errors=True)


WORKLOADS = {
    "fleet-energy": FleetWorkload,
    "fleet-federate": FleetWorkload,
    "serve-cycles": ServeWorkload,
}

#: Rounds the window completes whatever ``--seconds`` says; peak RSS
#: is read after them.
MIN_ROUNDS = 2


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](name, seed, workdir)
