"""Batch-awareness of the adaptive distribution policy.

When callers batch their remote invocations, n calls cost about n/B message
overheads, so the adaptive manager weighs observed windows by 1/B before
comparing them with ``min_calls``.  Decisions must flip exactly when the
amortised per-call cost crosses that boundary — and with ``batch_size=1``
the behaviour must be bit-identical to the unbatched seed heuristic.
"""

from __future__ import annotations

import pytest

import sample_app
from repro.api.errors import RedistributionError
from repro.core.transformer import ApplicationTransformer
from repro.policy.adaptive import AdaptiveDistributionManager
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController

SAMPLE = [sample_app.X, sample_app.Y, sample_app.Z]


def _setup(**manager_kwargs):
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(SAMPLE)
    cluster = Cluster(("front", "back"))
    app.deploy(cluster, default_node="front")
    controller = DistributionController(app, cluster)
    manager = AdaptiveDistributionManager(
        app, controller, threshold=0.6, min_calls=10, **manager_kwargs
    )
    return app, cluster, controller, manager


def _hammer_from_back(app, handle, calls):
    with app.executing_on("back"):
        for _ in range(calls):
            handle.n(1)


class TestAmortisedBoundary:
    def test_amortisation_suppresses_a_move_the_seed_would_make(self):
        """20 calls: unbatched → move; batch window 4 → 5 amortised < 10 → stay."""
        app, _, _, unbatched_manager = _setup(batch_size=1)
        y = app.new("Y", 1)
        unbatched_manager.attach(y)
        _hammer_from_back(app, y, 20)
        assert len(unbatched_manager.evaluate()) == 1

        app2, _, _, batched_manager = _setup(batch_size=4)
        y2 = app2.new("Y", 1)
        batched_manager.attach(y2)
        _hammer_from_back(app2, y2, 20)
        assert batched_manager.evaluate() == []

    def test_decision_flips_exactly_at_the_boundary(self):
        """min_calls=10, batch window 4: 39 calls stay (9.75), 40 move (10.0)."""
        for calls, expect_move in ((39, False), (40, True)):
            app, _, _, manager = _setup(batch_size=4)
            y = app.new("Y", 1)
            manager.attach(y)
            _hammer_from_back(app, y, calls)
            suggestions = manager.evaluate()
            assert bool(suggestions) is expect_move, (calls, suggestions)

    def test_suggestion_reports_amortised_calls(self):
        app, _, _, manager = _setup(batch_size=4)
        y = app.new("Y", 1)
        manager.attach(y)
        _hammer_from_back(app, y, 48)
        (suggestion,) = manager.evaluate()
        assert suggestion.call_count == 48
        assert suggestion.amortised_calls == pytest.approx(12.0)

    def test_amortised_count_helper(self):
        app, _, _, manager = _setup(batch_size=8)
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        _hammer_from_back(app, y, 24)
        assert manager.amortised_call_count(monitor) == pytest.approx(3.0)

    def test_invalid_batch_size_rejected(self):
        app, _, controller, _ = _setup()
        with pytest.raises(RedistributionError):
            AdaptiveDistributionManager(app, controller, batch_size=0)


class TestReplicationAmplification:
    """replication_factor=R weighs observed windows UP: each served write
    costs R messages under eager replication, so replicated traffic justifies
    a move sooner, not later."""

    def test_amplification_triggers_a_move_the_seed_would_skip(self):
        app, _, _, plain_manager = _setup()
        y = app.new("Y", 1)
        plain_manager.attach(y)
        _hammer_from_back(app, y, 6)  # 6 < min_calls=10 → stay
        assert plain_manager.evaluate() == []

        app2, _, _, replicated_manager = _setup(replication_factor=2)
        y2 = app2.new("Y", 1)
        replicated_manager.attach(y2)
        _hammer_from_back(app2, y2, 6)  # 6 * 2 = 12 >= 10 → move
        assert len(replicated_manager.evaluate()) == 1

    def test_amplification_composes_with_batch_amortisation(self):
        """batch 4 and 3 replicas: n * 3 / 4 crosses min_calls=10 at n=14."""
        for calls, expect_move in ((13, False), (14, True)):
            app, _, _, manager = _setup(batch_size=4, replication_factor=3)
            y = app.new("Y", 1)
            manager.attach(y)
            _hammer_from_back(app, y, calls)
            assert bool(manager.evaluate()) is expect_move, calls

    def test_invalid_replication_factor_rejected(self):
        app, _, controller, _ = _setup()
        with pytest.raises(RedistributionError):
            AdaptiveDistributionManager(app, controller, replication_factor=0)


class TestSeedEquivalence:
    """batch_size=1 (the default) must reproduce the seed heuristic exactly."""

    def test_default_manager_has_no_amortisation(self):
        app, _, _, manager = _setup()
        assert manager.batch_size == 1
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        _hammer_from_back(app, y, 17)
        assert manager.amortised_call_count(monitor) == 17.0

    def test_unbatched_decisions_match_seed_across_the_call_range(self):
        """Replicate the seed rule (move iff calls >= min_calls and share >= threshold)
        call-count by call-count and check the batch-aware code agrees."""
        for calls in (0, 1, 9, 10, 11, 25):
            app, _, _, manager = _setup(batch_size=1)
            y = app.new("Y", 1)
            manager.attach(y)
            _hammer_from_back(app, y, calls)
            suggestions = manager.evaluate()
            seed_would_move = calls >= manager.min_calls  # share is always 1.0 here
            assert bool(suggestions) is seed_would_move, calls
            if suggestions:
                assert suggestions[0].amortised_calls == float(calls)
                assert suggestions[0].call_count == calls

    def test_unbatched_suggestion_fields_unchanged(self):
        app, _, _, manager = _setup(batch_size=1)
        y = app.new("Y", 1)
        manager.attach(y)
        _hammer_from_back(app, y, 12)
        (suggestion,) = manager.evaluate()
        assert suggestion.target_node == "back"
        assert suggestion.caller_share == 1.0
        assert suggestion.call_count == 12
        assert "Y" in suggestion.describe()

    def test_adapt_still_moves_and_resets_window(self):
        app, _, controller, manager = _setup(batch_size=2)
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        _hammer_from_back(app, y, 40)
        record = manager.adapt()
        assert record.moved == 1
        assert controller.boundary_of(y) == ("remote", "back")
        assert monitor.total_calls == 0
