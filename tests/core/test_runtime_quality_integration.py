"""Integration: quality controller riding a full scheme-style session."""

import pytest

from repro.core.quality import QualityController
from repro.core.runtime import SnipRuntime
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.sessions import run_baseline_session
from repro.users.tracegen import generate_events
from tests.conftest import play_events

GAME = "candy_crush"
DURATION = 20.0


class TestSupervisedSession:
    @pytest.fixture(scope="class")
    def supervised(self, snip_config):
        from repro.core.profiler import CloudProfiler

        package = CloudProfiler(snip_config).build_package_from_sessions(
            GAME, seeds=[1, 2], duration_s=20.0
        )
        soc = snapdragon_821()
        runtime = SnipRuntime(
            soc, create_game(GAME, GAME_CONTENT_SEED),
            package.table.clone(), snip_config,
        )
        controller = QualityController(
            runtime, audit_rate=0.1, clear_threshold=0.3
        )
        events = generate_events(GAME, 9, DURATION)
        play_events(soc, events, controller.deliver, until=DURATION)
        return controller

    def test_supervision_leaves_savings_intact(self, supervised):
        baseline = run_baseline_session(GAME, seed=9, duration_s=DURATION)
        supervised_joules = supervised.runtime.soc.meter.total_joules
        savings = 1 - supervised_joules / baseline.report.total_joules
        assert savings > 0.15  # audits are sampled, not ruinous

    def test_audits_happened_and_were_clean(self, supervised):
        report = supervised.report()
        assert report.audited_hits > 5
        assert report.snip_enabled
        assert report.rolling_error <= 0.3

    def test_runtime_still_short_circuits(self, supervised):
        assert supervised.runtime.stats.hit_rate > 0.5
