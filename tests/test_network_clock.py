"""Unit tests for the simulated clock."""

from __future__ import annotations

import pytest

from repro.network.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_or_zero_advance_is_ignored(self):
        clock = SimClock()
        clock.advance(-1.0)
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_advance_to_future_timestamp(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == pytest.approx(3.0)

    def test_advance_to_lands_exactly_on_the_timestamp(self):
        """``now + (t - now)`` can round one ulp off ``t``; an event must
        fire at precisely its scheduled instant (span ends are computed as
        ``sent_at + delay`` and compared with the clock)."""
        clock = SimClock()
        clock.advance(0.00073)
        assert clock.now + (0.003135 - clock.now) != 0.003135  # the trap
        clock.advance_to(0.003135)
        assert clock.now == 0.003135

    def test_advance_to_past_timestamp_is_a_no_op(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance_to(3.0)
        assert clock.now == pytest.approx(5.0)
