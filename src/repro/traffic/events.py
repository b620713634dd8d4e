"""Deterministic discrete-event loop for the traffic layer.

Events are ordered by ``(time, priority, seq)``: time first, then a
caller-assigned priority class, then the strictly increasing scheduling
sequence number. The sequence number makes every key unique, so

* the heap never compares the scheduled actions themselves, and
* simultaneous events fire in exactly the order they were scheduled —
  event order is a pure function of the scheduling calls, never of heap
  internals, hashing or insertion timing.

Event times must be finite: a NaN key compares false against everything
and would silently break the heap's total order.

That totality is the traffic layer's half of the campaign determinism
contract: given the same spec-seeded streams, two runs schedule the same
events in the same order and therefore produce bitwise-identical
reports, which keeps traffic cells cacheable and shard-stable.

An action that cannot fire yet (its link outcome is not realized) raises
:class:`EventParked` before changing any state. :meth:`EventLoop.run`
then pushes the event back under its unchanged key and returns, and the
next ``run`` fires it first — so a parked loop fires exactly the events,
in exactly the order, of a loop that never parked.
"""

from __future__ import annotations

import heapq
import math

from ..exceptions import InvalidParameterError

__all__ = ["ARRIVAL", "SERVICE", "EventLoop", "EventParked"]

#: Priority class of frame arrivals. Lower fires first at equal times, so
#: a frame arriving exactly at a slot boundary is enqueued before that
#: slot's service decision looks at the queues.
ARRIVAL = 0

#: Priority class of slot-boundary service events.
SERVICE = 1


class EventParked(Exception):
    """Raised by an action that cannot fire yet; its event is kept as is."""


class EventLoop:
    """A heap-ordered event loop with a total, deterministic order.

    ``schedule`` may be called both before and during :meth:`run` (an
    action may schedule follow-up events); ``run`` fires events until the
    heap drains or an action parks, and returns the number fired.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        #: The :class:`EventParked` that stopped the last ``run``, or
        #: ``None`` when that run drained the heap.
        self.parked = None

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, priority: int, action, *args) -> None:
        """Schedule ``action(*args)`` at ``time`` within ``priority``."""
        time = float(time)
        if not math.isfinite(time):
            raise InvalidParameterError(f"event time must be finite, got {time}")
        if time < self.now:
            raise InvalidParameterError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        heapq.heappush(self._heap, (time, int(priority), self._seq, action, args))
        self._seq += 1

    def run(self) -> int:
        """Fire events in ``(time, priority, seq)`` order until drained or parked.

        A parked event is not counted: it is pushed back unchanged, stored
        on :attr:`parked`, and fires (and counts) on a later ``run``.
        """
        heap = self._heap
        fired = 0
        self.parked = None
        while heap:
            event = heapq.heappop(heap)
            time, _priority, _seq, action, args = event
            self.now = time
            try:
                action(*args)
            except EventParked as parked:
                heapq.heappush(heap, event)
                self.parked = parked
                break
            fired += 1
        return fired
