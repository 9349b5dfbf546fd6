"""Unit tests for the simulated clock, stopwatch and timeline."""

from __future__ import annotations

import pytest

from repro.network.clock import SimClock, Stopwatch, Timeline


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

    def test_reset(self):
        clock = SimClock()
        clock.advance(2.0)
        clock.reset()
        assert clock.now == 0.0

    def test_listeners_observe_advances(self):
        clock = SimClock()
        observed = []
        clock.on_advance(lambda before, after: observed.append((before, after)))
        clock.advance(1.0)
        clock.advance(2.0)
        assert observed == [(0.0, 1.0), (1.0, 3.0)]


class TestStopwatch:
    def test_elapsed_tracks_simulated_time(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.advance(0.25)
        assert watch.elapsed == pytest.approx(0.25)

    def test_restart_resets_the_origin(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.advance(1.0)
        watch.restart()
        clock.advance(0.5)
        assert watch.elapsed == pytest.approx(0.5)


class TestTimeline:
    def test_records_events_with_timestamps(self):
        clock = SimClock()
        timeline = Timeline(clock)
        timeline.record("start")
        clock.advance(1.0)
        timeline.record("end")
        assert timeline.events == [(0.0, "start"), (1.0, "end")]

    def test_events_labelled_filters_by_label(self):
        clock = SimClock()
        timeline = Timeline(clock)
        timeline.record("tick")
        clock.advance(1.0)
        timeline.record("tock")
        clock.advance(1.0)
        timeline.record("tick")
        assert timeline.events_labelled("tick") == [0.0, 2.0]

    def test_between_selects_a_window(self):
        clock = SimClock()
        timeline = Timeline(clock)
        for _ in range(4):
            timeline.record("event")
            clock.advance(1.0)
        assert len(timeline.between(1.0, 2.0)) == 2

    def test_clear(self):
        clock = SimClock()
        timeline = Timeline(clock)
        timeline.record("x")
        timeline.clear()
        assert timeline.events == []
