"""A fixed calibration kernel that scales timings to a reference speed.

On a shared machine the CPU a run gets can drop by half for seconds or
minutes at a time, which moves every wall-clock number alike. Each timed
run therefore also times this kernel just before every request (for the
serve mix: before every cycle) and every set-up, never inside their
timing, and multiplies each measured time by ``REFERENCE_S / (the kernel
time measured just before it)``: times as they would read on a machine
where the kernel takes ``REFERENCE_S``. The kernel belongs to the
benchmark, not the program, so no change to the program can move it; a
change that makes the program slower still reads slower.

The kernel mixes what the workloads spend their time on: short NumPy
calls on small strided arrays (the Viterbi add-compare-select pattern)
and plain interpreter work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the reference machine (2-core Intel Xeon VM, quiet).
REFERENCE_S = 0.026

_INPUT = np.random.default_rng(0).standard_normal((128, 64))


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    started = time.perf_counter()
    metrics = _INPUT
    acc = 0.0
    for _ in range(1500):
        survivors = np.maximum(metrics[:, ::2] + metrics[:, 1::2], metrics[:, 1::2] - metrics[:, ::2])
        acc += float(survivors[:, 0].sum())
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - started


def report(samples: list) -> dict:
    """Summary of a run's kernel times, with the run-wide median factor."""
    median = statistics.median(samples)
    return {
        "reference_s": REFERENCE_S,
        "median_s": median,
        "samples": len(samples),
        "scale": REFERENCE_S / median,
    }
