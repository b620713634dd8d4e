"""Event-driven traffic and scheduling above the fused link kernel.

The :mod:`repro.simulation` layer answers "what is the frame error rate
of one protocol round?"; this package answers the queueing questions a
deployment asks on top of it: how long do frames wait under bursty
arrivals, how many are dropped by finite buffers or exhausted ARQ
budgets, and which multi-pair relay scheduling discipline sustains the
highest offered load (the arXiv:1002.0123 question).

Determinism contract
--------------------
Every simulation is a pure function of the campaign spec:

* the event loop (:mod:`repro.traffic.events`) orders events by
  ``(time, priority, seq)`` — ties cannot exist, so event order never
  depends on heap internals or insertion timing;
* all randomness comes from spec-seeded spawned streams
  (:func:`repro.traffic.simulator.simulate_traffic` documents the spawn
  tree), never from wall clock or global state;
* link-layer outcomes are pre-seeded per pair under the documented RNG
  spawn policy of :mod:`repro.simulation.engine`, so the batched outcome
  stream and a naive per-frame simulate loop produce bitwise-identical
  reports (benchmark-asserted in ``benchmarks/bench_ablation_traffic.py``).

Because of this, traffic-objective campaign cells evaluate identically
under every executor, chunking, ``--shard I/N`` + gather, and the serve
daemon — the same guarantee the analytic and operational kernels give.
"""

from .arq import FlowTally, StopAndWaitArq
from .events import ARRIVAL, SERVICE, EventLoop, EventParked
from .generators import ARRIVAL_KINDS, arrival_times
from .outcomes import (
    DEFAULT_OUTCOME_CHUNK,
    OUTCOME_METHODS,
    FrameOutcomeStream,
    OutcomesPending,
    realize_chunks,
)
from .queues import FifoQueue, Frame
from .schedulers import SCHEDULERS, get_scheduler
from .simulator import (
    FlowStats,
    TrafficReport,
    simulate_traffic,
    traffic_link_values,
)

__all__ = [
    "ARRIVAL",
    "SERVICE",
    "EventLoop",
    "EventParked",
    "ARRIVAL_KINDS",
    "arrival_times",
    "FifoQueue",
    "Frame",
    "FlowTally",
    "StopAndWaitArq",
    "DEFAULT_OUTCOME_CHUNK",
    "OUTCOME_METHODS",
    "FrameOutcomeStream",
    "OutcomesPending",
    "realize_chunks",
    "SCHEDULERS",
    "get_scheduler",
    "FlowStats",
    "TrafficReport",
    "simulate_traffic",
    "traffic_link_values",
]
