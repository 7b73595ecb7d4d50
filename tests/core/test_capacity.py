"""Tests for capacity-bounded on-device tables and forest OOB."""

import numpy as np
import pytest

from repro.android.events import EventType
from repro.core.config import SnipConfig
from repro.core.runtime import SnipRuntime
from repro.core.table import SnipTable, TableEntry
from repro.errors import ConfigurationError
from repro.games.base import FieldWrite, OutputCategory
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.ml.forest import RandomForestClassifier
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_events
from tests.conftest import play_events


def _entry(weight):
    return TableEntry(
        writes=(FieldWrite("temp:x", OutputCategory.TEMP, weight, 8, True),),
        avg_cycles=1000.0,
        profile_weight=weight,
    )


class TestEviction:
    def test_evicts_lowest_confidence(self, ab_package):
        table = SnipTable(ab_package.selection)
        table.install_entry(EventType.FRAME_TICK, (1,), _entry(100.0))
        table.install_entry(EventType.FRAME_TICK, (2,), _entry(5.0))
        table.install_entry(EventType.TOUCH, (3,), _entry(50.0))
        assert table.evict_weakest()
        assert table.lookup(EventType.FRAME_TICK, (2,)) is None
        assert table.lookup(EventType.FRAME_TICK, (1,)) is not None
        assert table.entry_count == 2

    def test_evict_empty_table(self, ab_package):
        table = SnipTable(ab_package.selection)
        assert not table.evict_weakest()

    def test_capacity_enforced_at_runtime(self, ab_package):
        config = SnipConfig(table_capacity_entries=10)
        soc = snapdragon_821()
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        runtime = SnipRuntime(soc, game, SnipTable(ab_package.selection), config)
        play_events(soc, generate_events("ab_evolution", 11, 20.0), runtime.deliver)
        assert runtime.table.entry_count <= 10
        assert runtime.stats.evictions > 0
        assert runtime.stats.online_promotions > runtime.stats.evictions

    def test_unbounded_when_zero(self, ab_package):
        config = SnipConfig(table_capacity_entries=0)
        soc = snapdragon_821()
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        runtime = SnipRuntime(soc, game, SnipTable(ab_package.selection), config)
        play_events(soc, generate_events("ab_evolution", 11, 10.0), runtime.deliver)
        assert runtime.stats.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SnipConfig(table_capacity_entries=-1)


class TestForestOob:
    def test_oob_estimates_generalization(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(0, 4, size=(500, 2))
        labels = features[:, 0].astype(int)
        forest = RandomForestClassifier(n_trees=9, seed=0).fit(features, labels)
        assert forest.oob_accuracy_ is not None
        assert forest.oob_accuracy_ > 0.85

    def test_oob_reflects_noise_floor(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(size=(300, 2))
        labels = rng.integers(0, 2, size=300)  # pure noise
        forest = RandomForestClassifier(n_trees=9, seed=0).fit(features, labels)
        assert forest.oob_accuracy_ is not None
        assert forest.oob_accuracy_ < 0.65
