"""Property-style invariants over live runtime/session machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SnipConfig
from repro.core.runtime import SnipRuntime
from repro.games.registry import GAME_CONTENT_SEED, GAME_NAMES, create_game
from repro.soc.component import ComponentGroup
from repro.soc.soc import snapdragon_821
from repro.users.sessions import run_baseline_session
from repro.users.tracegen import generate_events
from tests.conftest import play_events


class TestSessionInvariants:
    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_ledger_axes_agree(self, game_name):
        result = run_baseline_session(game_name, seed=2, duration_s=8.0)
        report = result.report
        assert sum(report.by_group.values()) == pytest.approx(report.total_joules)
        assert sum(report.by_tag.values()) == pytest.approx(report.total_joules)
        assert sum(report.by_component.values()) == pytest.approx(
            report.total_joules
        )

    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_all_groups_positive(self, game_name):
        result = run_baseline_session(game_name, seed=2, duration_s=8.0)
        for group in ComponentGroup:
            assert result.report.by_group.get(group, 0.0) > 0.0

    def test_longer_sessions_cost_more(self):
        short = run_baseline_session("greenwall", seed=2, duration_s=6.0)
        long = run_baseline_session("greenwall", seed=2, duration_s=12.0)
        assert long.report.total_joules > short.report.total_joules


class TestRuntimeInvariants:
    @given(seed=st.integers(1, 50))
    @settings(max_examples=5, deadline=None)
    def test_hits_plus_misses_equals_events(self, seed, ab_package_shared):
        soc = snapdragon_821()
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        runtime = SnipRuntime(soc, game, ab_package_shared.table.clone(),
                              SnipConfig())
        play_events(soc, generate_events("ab_evolution", seed, 6.0), runtime.deliver)
        stats = runtime.stats
        assert stats.hits + stats.misses == stats.events
        assert 0.0 <= stats.coverage <= 1.0
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.avoided_cycles >= 0.0

    def test_snip_never_costs_more_than_baseline(self, ab_package_shared):
        for seed in (3, 11):
            soc = snapdragon_821()
            game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
            runtime = SnipRuntime(soc, game, ab_package_shared.table.clone(),
                                  SnipConfig())
            events = generate_events("ab_evolution", seed, 10.0)
            play_events(soc, events, runtime.deliver, until=10.0)
            baseline = run_baseline_session("ab_evolution", seed=seed,
                                            duration_s=10.0)
            # Lookup overheads are bounded well below the savings.
            assert soc.meter.total_joules < baseline.report.total_joules * 1.02


@pytest.fixture(scope="module")
def ab_package_shared(ab_package):
    """Module alias of the session-scoped package fixture."""
    return ab_package
