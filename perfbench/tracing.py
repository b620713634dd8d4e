"""In-memory span recorder and the layer patch table of the traced run.

The traced run wraps the public entry point of every layer from the
outside: each entry in :func:`layer_targets` names the object a caller
looks the function up on (``repro.campaign.executors.batched_sum_rates``
rather than ``repro.campaign.kernel.batched_sum_rates``, because the
executors import it by name), the span name it records under, and an
optional probe that turns the call's arguments or result into counts.
Nothing under ``src/`` changes; :func:`traced` installs the wrappers and
restores the originals on exit.

A span records its name, start, end, parent span and request id. Spans
live in memory and are written as JSONL once the run ends. A span's self
time is its duration minus the part of it its child spans cover; a
layer's self time is the sum over its spans. Work done inside pool
workers or the serve daemon happens in other processes and is invisible
here: only the parent-side span around it is recorded.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Span name of the benchmark's own per-request root span.
REQUEST = "request"


class Tracer:
    """Collects spans from any number of threads into one list."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request=None):
        """Record one span; nested spans in the same thread become children."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request if parent is None else parent["request"],
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _first_dim(value) -> int:
    shape = np.shape(value)
    return int(shape[0]) if shape else 1


def _cells(args, kwargs, result) -> dict:
    # batched_sum_rates(protocol, gab, gar, gbr, power)
    return {"cells": int(np.size(args[1]))}


def _batches(args, kwargs, result) -> dict:
    # Executor.run(self, batches, progress=None)
    return {"batches": len(args[1])}


def _rows_arg(args, kwargs, result) -> dict:
    # decode_rows(self, llr_rows, n) / check_rows(self, frame_rows)
    return {"rows": _first_dim(args[1])}


def _phase_rows(args, kwargs, result) -> dict:
    # run_phase_rows(self, transmissions, listeners, rng)
    transmissions = args[1]
    rows = _first_dim(next(iter(transmissions.values()))) if transmissions else 0
    return {"rows": rows}


def _frames(args, kwargs, result) -> dict:
    # simulate_protocol_cells returns one SimulationReport per cell.
    return {
        "frames": sum(r.a_to_b.frames + r.b_to_a.frames for r in result),
        "unresolved": sum(1 for r in result if r.resolved is False),
    }


def _events(args, kwargs, result) -> dict:
    # EventLoop.run returns the number of events fired.
    return {"events": int(result)}


def _frame_bytes(args, kwargs, result) -> dict:
    # decode_frame(line) on the client side of the serve protocol.
    return {"bytes": len(args[0])}


def layer_targets() -> list:
    """``(owner, attribute, span name, probe)`` for every traced entry point."""
    from repro import api
    from repro.campaign import executors, kernel, spec
    from repro.channels import halfduplex
    from repro.scenarios import base
    from repro.serve import client
    from repro.simulation import convolutional, crc, linkcodec, montecarlo
    from repro.simulation import engine as link_engine
    from repro.traffic import events, outcomes, simulator

    targets = [
        (executors, "batched_sum_rates", "kernel.batched_sum_rates", _cells),
        (kernel, "mi_value_table", "kernel.mi_value_table", None),
        (api, "run_campaign", "engine.run_campaign", None),
        (base.Scenario, "to_campaign_spec", "spec.lower", None),
        (spec.CampaignSpec, "spec_hash", "spec.hash", None),
        (spec.CampaignSpec, "sample_gain_draws", "spec.draws", None),
        (montecarlo, "fused_link_values", "montecarlo.fused_link_values", None),
        (
            montecarlo,
            "simulate_protocol_cells",
            "montecarlo.simulate_protocol_cells",
            _frames,
        ),
        (link_engine.BatchedProtocolEngine, "run_rounds", "linkengine.run_rounds", None),
        (link_engine, "sic_decode_mac_rows", "relay.sic_decode_mac_rows", None),
        (convolutional.ConvolutionalCode, "decode_rows", "viterbi.decode_rows", _rows_arg),
        (linkcodec.LinkCodec, "encode_rows", "codec.encode_rows", None),
        (linkcodec.LinkCodec, "demodulate_rows", "codec.demodulate_rows", None),
        (linkcodec.LinkCodec, "decode_llr_rows", "codec.decode_llr_rows", None),
        (crc.CrcCode, "check_rows", "crc.check_rows", _rows_arg),
        (halfduplex.FusedHalfDuplexMedium, "run_phase_rows", "medium.fused", _phase_rows),
        (halfduplex.HalfDuplexMedium, "run_phase_rows", "medium.unfused", _phase_rows),
        (simulator, "traffic_link_values", "traffic.traffic_link_values", None),
        (outcomes.FrameOutcomeStream, "take", "traffic.take", None),
        (events.EventLoop, "run", "traffic.event_loop", _events),
        (client.ServeClient, "evaluate", "serve.evaluate", None),
        (client, "decode_frame", "serve.decode_frame", _frame_bytes),
        (client, "values_from_payload", "serve.decode_values", None),
    ]
    for executor in (
        executors.SerialExecutor,
        executors.VectorizedExecutor,
        executors.MultiprocessExecutor,
        executors.AsyncExecutor,
    ):
        targets.append((executor, "run", "executors.run", _batches))
    return targets


def _wrap(tracer: Tracer, name: str, function, probe):
    @functools.wraps(function)
    def traced_call(*args, **kwargs):
        with tracer.span(name) as record:
            result = function(*args, **kwargs)
            if probe is not None:
                record.update(probe(args, kwargs, result))
        return result

    return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Install a span wrapper on every layer entry point; restore on exit."""
    restore = []
    try:
        for owner, attribute, name, probe in layer_targets():
            owned = attribute in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute, _wrap(tracer, name, original, probe))
            restore.append((owner, attribute, original, owned))
        yield tracer
    finally:
        for owner, attribute, original, owned in reversed(restore):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _covered(children: list) -> float:
    """Length of the union of the children's ``[start, end]`` intervals."""
    total = 0.0
    current_start = current_end = None
    for child in sorted(children, key=lambda s: s["start"]):
        if current_end is None or child["start"] > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = child["start"], child["end"]
        else:
            current_end = max(current_end, child["end"])
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list) -> dict:
    """Span id -> self time (duration minus what its children cover)."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(children[span["id"]])
        for span in spans
    }


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


def summarize(spans: list, wall_s: float, n_threads: int) -> dict:
    """Layer self times, counts and the unattributed remainder.

    ``wall_s`` is the traced pass's wall time and ``n_threads`` the number
    of load threads (client connections) that ran in it, so the attributed
    total is ``wall_s * n_threads`` thread-seconds. The unattributed part
    is measured, not derived: the self time of the root request spans plus
    the time each thread spent outside any request span. ``residual_s`` is
    what is left once layer self times and the unattributed part are
    subtracted from the total, which is zero up to rounding when the span
    tree is well formed.
    """
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    span_self = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    request_self = 0.0
    roots_by_thread = defaultdict(list)
    for span in spans:
        name = span["name"]
        if span["parent"] is None:
            roots_by_thread[span["thread"]].append(span)
        if name == REQUEST:
            request_self += selfs[span["id"]]
            continue
        layer_self[layer_of(name)] += selfs[span["id"]]
        span_self[name] += selfs[span["id"]]
        inclusive[name] += span["end"] - span["start"]
        calls[name] += 1
        for key in ("cells", "batches", "rows", "frames", "unresolved", "events", "bytes"):
            if key in span:
                counts[f"{name}.{key}"] += span[key]
    outside = sum(wall_s - _covered(roots) for roots in roots_by_thread.values())
    outside += wall_s * max(0, n_threads - len(roots_by_thread))
    unattributed = request_self + outside
    total = wall_s * n_threads
    return {
        "wall_s": wall_s,
        "threads": n_threads,
        "total_s": total,
        "layers_self_s": dict(sorted(layer_self.items())),
        "unattributed_s": unattributed,
        "residual_s": total - sum(layer_self.values()) - unattributed,
        "span_self_s": dict(sorted(span_self.items())),
        "span_inclusive_s": dict(sorted(inclusive.items())),
        "span_calls": dict(sorted(calls.items())),
        "span_counts": dict(sorted(counts.items())),
        "n_spans": len(spans),
    }
