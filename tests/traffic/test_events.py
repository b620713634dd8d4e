"""The deterministic event loop: ordering, clock, parking and validation."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.traffic import ARRIVAL, SERVICE, EventLoop, EventParked


class TestOrdering:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        for t in (2.0, 0.5, 1.25):
            loop.schedule(t, ARRIVAL, fired.append, t)
        assert loop.run() == 3
        assert fired == [0.5, 1.25, 2.0]

    def test_priority_breaks_time_ties(self):
        """Arrivals at time t land before the slot-t service decision."""
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, SERVICE, fired.append, "service")
        loop.schedule(1.0, ARRIVAL, fired.append, "arrival")
        loop.run()
        assert fired == ["arrival", "service"]

    def test_sequence_breaks_full_ties_fifo(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule(3.0, ARRIVAL, fired.append, tag)
        loop.run()
        assert fired == ["first", "second", "third"]

    def test_actions_may_schedule_followups(self):
        loop = EventLoop()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                loop.schedule(loop.now + 1.0, SERVICE, chain, depth + 1)

        loop.schedule(0.0, SERVICE, chain, 0)
        assert loop.run() == 4
        assert fired == [0, 1, 2, 3]


class TestClock:
    def test_now_tracks_the_fired_event(self):
        loop = EventLoop()
        seen = []
        for t in (0.25, 4.0):
            loop.schedule(t, ARRIVAL, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [0.25, 4.0]
        assert loop.now == 4.0

    def test_scheduling_into_the_past_is_rejected(self):
        loop = EventLoop()
        loop.schedule(2.0, ARRIVAL, lambda: None)
        loop.run()
        with pytest.raises(InvalidParameterError):
            loop.schedule(1.0, ARRIVAL, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_times_are_rejected(self, time):
        """A NaN key would break the heap's total order."""
        loop = EventLoop()
        with pytest.raises(InvalidParameterError):
            loop.schedule(time, ARRIVAL, lambda: None)
        assert len(loop) == 0

    def test_len_counts_pending_events(self):
        loop = EventLoop()
        assert len(loop) == 0
        loop.schedule(1.0, ARRIVAL, lambda: None)
        loop.schedule(2.0, ARRIVAL, lambda: None)
        assert len(loop) == 2
        loop.run()
        assert len(loop) == 0


class TestParking:
    def _loop(self, ready):
        """Events at t=0,1,2; the t=1 event parks until ``ready`` is set."""
        loop = EventLoop()
        fired = []

        def gated(tag):
            if not ready:
                raise EventParked(tag)
            fired.append(tag)

        loop.schedule(0.0, SERVICE, fired.append, "first")
        loop.schedule(1.0, SERVICE, gated, "gated")
        loop.schedule(1.0, SERVICE, fired.append, "tie")
        loop.schedule(2.0, ARRIVAL, fired.append, "last")
        return loop, fired

    def test_parked_event_keeps_its_key_and_fires_once_on_resume(self):
        ready = []
        loop, fired = self._loop(ready)
        key = sorted(loop._heap)[1][:3]
        assert loop.run() == 1
        assert fired == ["first"]
        assert isinstance(loop.parked, EventParked)
        assert loop.parked.args == ("gated",)
        assert len(loop) == 3
        assert min(loop._heap)[:3] == key
        assert loop.now == 1.0
        # Still not ready: parks again, fires nothing, keeps the key.
        assert loop.run() == 0
        assert min(loop._heap)[:3] == key
        ready.append(True)
        assert loop.run() == 3
        assert loop.parked is None
        assert fired == ["first", "gated", "tie", "last"]
        assert len(loop) == 0

    def test_parking_never_changes_the_event_order(self):
        unparked, reference = self._loop([True])
        assert unparked.run() == 4
        ready = []
        loop, fired = self._loop(ready)
        total = loop.run()
        ready.append(True)
        total += loop.run()
        assert total == 4
        assert fired == reference
