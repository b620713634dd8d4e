"""Traffic generators: deterministic per-flow arrival processes.

Each flow's arrivals are materialized up front as a tuple of real-valued
arrival times in ``[0, horizon)`` from that flow's own spawned stream.
The draw pattern is fixed — one scalar exponential per inter-arrival
gap, in arrival order — so the times (and therefore the whole event
schedule) are a pure function of the stream state, regardless of how the
simulation later interleaves flows.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["ARRIVAL_KINDS", "arrival_times"]

#: Supported arrival processes.
#:
#: * ``poisson`` — memoryless arrivals at ``rate`` frames/slot
#:   (exponential inter-arrival gaps);
#: * ``periodic`` — deterministic arrivals every ``1/rate`` slots,
#:   phase-offset by half a period; consumes **no** randomness;
#: * ``bursty`` — batched Poisson: bursts of ``burst_size`` simultaneous
#:   frames arriving as a Poisson process of rate ``rate / burst_size``,
#:   so the long-run frame rate still equals ``rate``.
ARRIVAL_KINDS = ("poisson", "periodic", "bursty")


def arrival_times(
    kind: str,
    rate: float,
    horizon: float,
    rng: np.random.Generator,
    *,
    burst_size: int = 1,
) -> tuple:
    """Arrival times of one flow over ``[0, horizon)``, in order.

    ``rate`` is the mean frame arrival rate in frames per slot. Frames
    that would arrive at or after ``horizon`` are not generated: the
    simulation ends at the horizon and they could never be served.
    Frames of one burst share an arrival time; the event loop's sequence
    numbers keep them FIFO. ``rate`` and ``horizon`` must be finite: a NaN
    rate would silently yield no arrivals, and an infinite one zero-length
    gaps that never reach the horizon.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise InvalidParameterError(
            f"arrival rate must be positive and finite, got {rate}"
        )
    if not (math.isfinite(horizon) and horizon > 0):
        raise InvalidParameterError(
            f"horizon must be positive and finite, got {horizon}"
        )
    if burst_size < 1:
        raise InvalidParameterError(f"burst size must be positive, got {burst_size}")
    if kind == "periodic":
        period = 1.0 / rate
        times = []
        t = 0.5 * period
        while t < horizon:
            times.append(t)
            t += period
        return tuple(times)
    if kind == "poisson":
        times = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon:
            times.append(t)
            t += float(rng.exponential(1.0 / rate))
        return tuple(times)
    if kind == "bursty":
        gap = burst_size / rate
        times = []
        t = float(rng.exponential(gap))
        while t < horizon:
            times.extend([t] * burst_size)
            t += float(rng.exponential(gap))
        return tuple(times)
    raise InvalidParameterError(
        f"unknown arrival kind {kind!r}; choose from {ARRIVAL_KINDS}"
    )
