"""The repository benchmark: four workloads, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload link-fer --seed 3 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric. ``--trace 1`` is the separate traced run: it evaluates
a fixed prefix of the same seeded request stream twice, first untraced
and then with a span wrapper on every layer entry point, and prints the
per-layer metrics, the layer breakdown and the tracing overhead. Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``detail`` object with the environment, latency percentiles and
(traced) the full breakdown. Both are also written, with the spans as
JSONL, under ``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("analytic-ensemble", "link-fer", "traffic-arq", "serve-mix")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 3

#: Requests (serve-mix: cycles) evaluated by each pass of the traced run.
TRACE_REQUESTS = {
    "analytic-ensemble": 12,
    "link-fer": 6,
    "traffic-arq": 5,
    "serve-mix": 3,
}

#: End-to-end metrics, timed with tracing off: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "requests_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "cold_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better, what it
#: should move). "moves" names the end-to-end metric and workload a change
#: in this layer is expected to show up in.
PER_LAYER = {
    "kernel.self_s": ("s", "lower", "cells_per_s@analytic-ensemble"),
    "kernel.calls": ("count", "lower", "cells_per_s@analytic-ensemble"),
    "kernel.cells": ("count", "lower", "cells_per_s@analytic-ensemble"),
    "kernel.cells_per_call": ("ratio", "higher", "cells_per_s@analytic-ensemble"),
    "executors.run_s": ("s", "lower", "cells_per_s@analytic-ensemble"),
    "executors.batches": ("count", "lower", "cells_per_s@analytic-ensemble"),
    "engine.self_s": ("s", "lower", "setup_s,cells_per_s@analytic-ensemble"),
    "spec.lower_s": ("s", "lower", "setup_s,cells_per_s@analytic-ensemble"),
    "spec.hash_s": ("s", "lower", "setup_s,cells_per_s@analytic-ensemble"),
    "spec.draws_s": ("s", "lower", "setup_s,cells_per_s@analytic-ensemble"),
    "montecarlo.self_s": ("s", "lower", "cells_per_s@link-fer"),
    "montecarlo.frames": ("count", "lower", "cells_per_s@link-fer"),
    "unresolved_cells": ("count", "lower", "cells_per_s@link-fer"),
    "linkengine.self_s": ("s", "lower", "cells_per_s@link-fer,traffic-arq"),
    "viterbi.self_s": ("s", "lower", "cells_per_s@link-fer,traffic-arq"),
    "viterbi.calls": ("count", "lower", "cells_per_s@link-fer,traffic-arq"),
    "viterbi.rows": ("count", "lower", "cells_per_s@link-fer,traffic-arq"),
    "viterbi.rows_per_call": ("ratio", "higher", "cells_per_s@link-fer,traffic-arq"),
    "codec.self_s": ("s", "lower", "cells_per_s@link-fer,traffic-arq"),
    "crc.self_s": ("s", "lower", "cells_per_s@link-fer,traffic-arq"),
    "crc.rows": ("count", "lower", "cells_per_s@link-fer,traffic-arq"),
    "relay.self_s": ("s", "lower", "cells_per_s@link-fer,traffic-arq"),
    "medium.fused_s": ("s", "lower", "cells_per_s@link-fer"),
    "medium.unfused_s": ("s", "lower", "cells_per_s@traffic-arq"),
    "medium.rows": ("count", "lower", "cells_per_s@link-fer,traffic-arq"),
    "traffic.self_s": ("s", "lower", "cells_per_s@traffic-arq"),
    "traffic.takes": ("count", "lower", "cells_per_s@traffic-arq"),
    "traffic.events": ("count", "lower", "cells_per_s@traffic-arq"),
    "serve.server_s": ("s", "lower", "cold_p50_ms,requests_per_s@serve-mix"),
    "serve.transport_s": ("s", "lower", "p50_ms,requests_per_s@serve-mix"),
    "serve.client_decode_s": ("s", "lower", "p50_ms,requests_per_s@serve-mix"),
    "serve.frame_bytes": ("bytes", "lower", "p50_ms,requests_per_s@serve-mix"),
    "serve.from_cache": ("count", "higher", "p50_ms,requests_per_s@serve-mix"),
    "serve.computed": ("count", "lower", "cold_p50_ms@serve-mix"),
    "serve.joined": ("count", "higher", "cold_p50_ms,requests_per_s@serve-mix"),
    "serve.rejected_busy": ("count", "lower", "requests_per_s@serve-mix"),
    "serve.chunk_retries": ("count", "lower", "cold_p50_ms@serve-mix"),
    "serve.pool_rebuilds": ("count", "lower", "cold_p50_ms@serve-mix"),
    "serve.hot_p50_ms": ("ms", "lower", "p50_ms@serve-mix"),
    "serve.hot_tail_ms": ("ms", "lower", "requests_per_s@serve-mix"),
    "serve.cold_p50_ms": ("ms", "lower", "cold_p50_ms@serve-mix"),
    "trace.untraced_wall_s": ("s", "lower", "all"),
    "trace.traced_wall_s": ("s", "lower", "all"),
    "trace.overhead": ("ratio", "lower", "none (tracing cost)"),
    "trace.unattributed_s": ("s", "lower", "all"),
    "trace.residual_s": ("s", "lower", "none (span-tree consistency)"),
}

#: Where each per-layer time comes from in the span summary.
_LAYER_SELF = {
    "kernel.self_s": "kernel",
    "engine.self_s": "engine",
    "montecarlo.self_s": "montecarlo",
    "linkengine.self_s": "linkengine",
    "viterbi.self_s": "viterbi",
    "codec.self_s": "codec",
    "crc.self_s": "crc",
    "relay.self_s": "relay",
    "traffic.self_s": "traffic",
}


def checkout_root() -> Path:
    """The checkout the benchmark runs in (its working directory)."""
    return Path.cwd()


def environment(root: Path, seed: int, daemon_workers) -> dict:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        completed = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "daemon_workers": daemon_workers,
    }


def latency_summary(latencies_s: list) -> dict:
    """Median and tail round trip in ms, with the tail's percentile.

    The tail is the highest percentile with at least ten samples beyond
    it: the eleventh-largest sample, at percentile ``100 * (n - 10) / n``.
    With ten samples or fewer no such percentile exists and the maximum
    is reported at percentile 100.
    """
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50_ms": None, "tail_ms": None, "tail_percentile": None}
    if n > 10:
        tail, percentile = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = ordered[-1], 100.0
    return {
        "n": n,
        "p50_ms": 1000.0 * statistics.median(ordered),
        "tail_ms": 1000.0 * tail,
        "tail_percentile": percentile,
    }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_setup(root: Path, workload: str, seed: int) -> float:
    """Seconds from process start until a fresh process is ready to serve."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = probe.stdout.readline()
    elapsed = time.perf_counter() - started
    probe.stdout.close()
    if probe.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


# -- in-process workloads ---------------------------------------------------


def run_in_process(root: Path, workload: str, seed: int, seconds: float) -> dict:
    from calibration import REFERENCE_S, calibrate, report
    from workloads import check, make_request, run_request, warm_up

    setup_calibration = []
    setup = []
    for _ in range(SETUP_REPEATS):
        setup_calibration.append(calibrate())
        setup.append(_probe_setup(root, workload, seed))
    warm_up(workload)
    calibration = []
    completed = []
    busy = 0.0
    index = 0
    while busy < seconds:
        request = make_request(workload, seed, index)
        calibration.append(calibrate())
        done = run_request(request)
        completed.append(done)
        busy += done.latency_s
        index += 1
    peak_rss = _self_rss_mb()
    checked, mismatches = check(workload, completed, seed)
    latencies = [done.latency_s for done in completed]
    summary = latency_summary(latencies)
    cells = sum(done.request.cells for done in completed)
    unresolved = sum(
        r.campaign.unresolved_cells or 0 for done in completed for r in done.results
    )
    raw = {
        "setup_s": statistics.median(setup),
        "cells_per_s": statistics.median(
            done.request.cells / done.latency_s for done in completed
        ),
        "requests_per_s": statistics.median(1.0 / x for x in latencies),
        "p50_ms": summary["p50_ms"],
        # Every in-process request computes its grid.
        "cold_p50_ms": summary["p50_ms"],
    }
    # Each time is scaled by the kernel time measured just before it.
    scaled = [d.latency_s * REFERENCE_S / c for d, c in zip(completed, calibration)]
    reference = {
        "setup_s": statistics.median(
            x * REFERENCE_S / c for x, c in zip(setup, setup_calibration)
        ),
        "cells_per_s": statistics.median(
            d.request.cells / x for d, x in zip(completed, scaled)
        ),
        "requests_per_s": statistics.median(1.0 / x for x in scaled),
        "p50_ms": 1000.0 * statistics.median(scaled),
        "cold_p50_ms": 1000.0 * statistics.median(scaled),
    }
    return {
        "metrics": {**reference, "peak_rss_mb": peak_rss},
        "attempted": len(completed),
        "failed": min(len(mismatches), len(completed)),
        "checked": checked,
        "mismatches": mismatches,
        "detail": {
            "raw": raw,
            "calibration": report(setup_calibration + calibration),
            "setup_samples_s": setup,
            "wall_s": busy,
            "requests": len(completed),
            "cells": cells,
            "mean_cells_per_s": cells / busy,
            "unresolved_cells": unresolved,
            "latency": summary,
            "latencies_ms": [1000.0 * x for x in latencies],
            "load": "closed loop, 1 caller",
        },
        "daemon_workers": None,
    }


def _layer_metrics(summary: dict) -> dict:
    """The per-layer metrics that come straight from the span summary."""
    layers = summary["layers_self_s"]
    calls = summary["span_calls"]
    counts = summary["span_counts"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({name: layers.get(layer, 0.0) for name, layer in _LAYER_SELF.items()})
    kernel_calls = calls.get("kernel.batched_sum_rates", 0)
    kernel_cells = counts.get("kernel.batched_sum_rates.cells", 0)
    viterbi_calls = calls.get("viterbi.decode_rows", 0)
    viterbi_rows = counts.get("viterbi.decode_rows.rows", 0)
    metrics.update(
        {
            "kernel.calls": kernel_calls,
            "kernel.cells": kernel_cells,
            "kernel.cells_per_call": ratio(kernel_cells, kernel_calls),
            "executors.run_s": summary["span_inclusive_s"].get("executors.run", 0.0),
            "executors.batches": counts.get("executors.run.batches", 0),
            "spec.lower_s": summary["span_self_s"].get("spec.lower", 0.0),
            "spec.hash_s": summary["span_self_s"].get("spec.hash", 0.0),
            "spec.draws_s": summary["span_self_s"].get("spec.draws", 0.0),
            "montecarlo.frames": counts.get("montecarlo.simulate_protocol_cells.frames", 0),
            "unresolved_cells": counts.get(
                "montecarlo.simulate_protocol_cells.unresolved", 0
            ),
            "viterbi.calls": viterbi_calls,
            "viterbi.rows": viterbi_rows,
            "viterbi.rows_per_call": ratio(viterbi_rows, viterbi_calls),
            "crc.rows": counts.get("crc.check_rows.rows", 0),
            "medium.fused_s": summary["span_self_s"].get("medium.fused", 0.0),
            "medium.unfused_s": summary["span_self_s"].get("medium.unfused", 0.0),
            "medium.rows": counts.get("medium.fused.rows", 0)
            + counts.get("medium.unfused.rows", 0),
            "traffic.takes": calls.get("traffic.take", 0),
            "traffic.events": counts.get("traffic.event_loop.events", 0),
            "serve.client_decode_s": summary["span_inclusive_s"].get(
                "serve.decode_frame", 0.0
            )
            + summary["span_inclusive_s"].get("serve.decode_values", 0.0),
            "serve.frame_bytes": counts.get("serve.decode_frame.bytes", 0),
            "trace.unattributed_s": summary["unattributed_s"],
            "trace.residual_s": summary["residual_s"],
        }
    )
    return metrics


def trace_in_process(root: Path, workload: str, seed: int, n_requests=None) -> dict:
    from tracing import Tracer, summarize, traced
    from workloads import check, make_request, run_request, warm_up

    n_requests = n_requests or TRACE_REQUESTS[workload]
    requests = [make_request(workload, seed, i) for i in range(n_requests)]
    warm_up(workload)
    started = time.perf_counter()
    for request in requests:
        run_request(request)
    untraced_wall = time.perf_counter() - started

    tracer = Tracer()
    with traced(tracer):
        started = time.perf_counter()
        completed = [run_request(request, tracer) for request in requests]
        traced_wall = time.perf_counter() - started
    checked, mismatches = check(workload, completed, seed)
    summary = summarize(tracer.spans, traced_wall, 1)
    metrics = _layer_metrics(summary)
    metrics.update(
        {
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead": traced_wall / untraced_wall,
        }
    )
    return {
        "metrics": metrics,
        "attempted": len(completed),
        "failed": min(len(mismatches), len(completed)),
        "checked": checked,
        "mismatches": mismatches,
        "detail": {"breakdown": summary, "requests": len(completed)},
        "tracer": tracer,
        "daemon_workers": None,
    }


# -- serve-mix --------------------------------------------------------------


def _serve_counts(records: list) -> dict:
    served = [r for r in records if "error" not in r]
    return {
        "from_cache": sum(1 for r in served if r["served_from"] == "cache"),
        "computed": sum(1 for r in served if r["served_from"] == "computed"),
        "joined": sum(1 for r in served if r["served_from"] == "joined"),
        "errors": len(records) - len(served),
    }


def _split_by_source(records: list) -> dict:
    """Per ``served_from``: request count, server seconds, transport seconds."""
    split = {}
    for record in records:
        if "error" in record:
            continue
        entry = split.setdefault(
            record["served_from"], {"requests": 0, "server_s": 0.0, "transport_s": 0.0}
        )
        entry["requests"] += 1
        entry["server_s"] += record["server_s"]
        entry["transport_s"] += record["rtt_s"] - record["server_s"]
    return split


def _stats(daemon) -> dict:
    return daemon.client.stats()["stats"]


def run_serve(root: Path, work: Path, seed: int, seconds: float) -> dict:
    from calibration import REFERENCE_S, calibrate, report
    from serving import Daemon, MixLoad

    setup_calibration = []
    setup = []
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(root, work, f"d{os.getpid()}-{attempt}")
            setup_calibration.append(calibrate())
            setup.append(daemon.start())
        before = _stats(daemon)
        load = MixLoad(daemon, seed, calibrating=True)
        wall = load.run(seconds=seconds)
        after = _stats(daemon)
        daemon_rss = daemon.peak_rss_mb()
        workers = daemon.workers
    finally:
        if daemon is not None:
            daemon.stop()
    peak_rss = _self_rss_mb() + daemon_rss
    checked, mismatches = load.check()
    records = load.records
    ok = [r for r in records if "error" not in r]
    everything = latency_summary([r["rtt_s"] for r in ok])
    hot = latency_summary([r["rtt_s"] for r in ok if r["served_from"] == "cache"])
    cold = latency_summary([r["rtt_s"] for r in ok if r["served_from"] == "computed"])
    counts = _serve_counts(records)
    rates = load.cycle_rates() or [
        (sum(r["cells"] for r in ok) / wall, len(ok) / wall)
    ]
    raw = {
        "setup_s": statistics.median(setup),
        "cells_per_s": statistics.median(cells for cells, _ in rates),
        "requests_per_s": statistics.median(requests for _, requests in rates),
        "p50_ms": everything["p50_ms"],
        "cold_p50_ms": cold["p50_ms"],
    }
    # Cycle k and its requests are scaled by the kernel time measured just
    # before the cycle.
    factors = [REFERENCE_S / c for c in load.calibration]
    scaled_rates = [
        (cells / factors[k], requests / factors[k])
        for k, (cells, requests) in enumerate(load.cycle_rates())
    ] or [(cells / statistics.median(factors), requests / statistics.median(factors))
          for cells, requests in rates]
    reference = {
        "setup_s": statistics.median(
            x * REFERENCE_S / c for x, c in zip(setup, setup_calibration)
        ),
        "cells_per_s": statistics.median(cells for cells, _ in scaled_rates),
        "requests_per_s": statistics.median(requests for _, requests in scaled_rates),
        "p50_ms": 1000.0 * statistics.median(r["rtt_s"] * factors[r["cycle"]] for r in ok),
        "cold_p50_ms": 1000.0
        * statistics.median(
            r["rtt_s"] * factors[r["cycle"]] for r in ok if r["served_from"] == "computed"
        ),
    }
    return {
        "metrics": {**reference, "peak_rss_mb": peak_rss},
        "attempted": len(records),
        "failed": min(counts["errors"] + len(mismatches), len(records)),
        "checked": checked,
        "mismatches": mismatches,
        "detail": {
            "raw": raw,
            "calibration": report(setup_calibration + load.calibration),
            "setup_samples_s": setup,
            "wall_s": wall,
            "cycles": len(rates),
            "mean_cells_per_s": sum(r["cells"] for r in ok) / wall,
            "latency": everything,
            "hot_latency": hot,
            "cold_latency": cold,
            "served_from": counts,
            "by_source": _split_by_source(records),
            "daemon_stats_delta": {k: after[k] - before.get(k, 0) for k in after},
            "load": "closed loop, 2 client connections in lockstep steps",
        },
        "daemon_workers": workers,
    }


def _serve_pass(root: Path, work: Path, seed: int, cycles: int, tracer=None):
    """``cycles`` of the mix against a fresh daemon: (load, wall, stats delta)."""
    from serving import Daemon, MixLoad
    from tracing import traced

    tag = "traced" if tracer is not None else "untraced"
    daemon = Daemon(root, work, f"d{os.getpid()}-{tag}")
    try:
        daemon.start()
        before = _stats(daemon)
        load = MixLoad(daemon, seed, tracer)
        if tracer is None:
            wall = load.run(cycles=cycles)
        else:
            with traced(tracer):
                wall = load.run(cycles=cycles)
        after = _stats(daemon)
        return load, wall, {k: after[k] - before.get(k, 0) for k in after}, daemon.workers
    finally:
        daemon.stop()


def trace_serve(root: Path, work: Path, seed: int, cycles=None) -> dict:
    from serving import CLIENTS
    from tracing import Tracer, summarize

    cycles = cycles or TRACE_REQUESTS["serve-mix"]
    _, untraced_wall, _, _ = _serve_pass(root, work, seed, cycles)
    tracer = Tracer()
    load, traced_wall, delta, workers = _serve_pass(root, work, seed, cycles, tracer)
    checked, mismatches = load.check()
    records = load.records
    ok = [r for r in records if "error" not in r]
    summary = summarize(tracer.spans, traced_wall, CLIENTS)
    counts = _serve_counts(records)
    hot = latency_summary([r["rtt_s"] for r in ok if r["served_from"] == "cache"])
    cold = latency_summary([r["rtt_s"] for r in ok if r["served_from"] == "computed"])
    metrics = _layer_metrics(summary)
    server_s = sum(r["server_s"] for r in ok)
    metrics.update(
        {
            "serve.server_s": server_s,
            "serve.transport_s": sum(r["rtt_s"] for r in ok) - server_s,
            "serve.from_cache": counts["from_cache"],
            "serve.computed": counts["computed"],
            "serve.joined": counts["joined"],
            "serve.rejected_busy": delta["rejected_busy"],
            "serve.chunk_retries": delta["chunk_retries"],
            "serve.pool_rebuilds": delta["pool_rebuilds"],
            "serve.hot_p50_ms": hot["p50_ms"] or 0.0,
            "serve.hot_tail_ms": hot["tail_ms"] or 0.0,
            "serve.cold_p50_ms": cold["p50_ms"] or 0.0,
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead": traced_wall / untraced_wall,
        }
    )
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": min(counts["errors"] + len(mismatches), len(records)),
        "checked": checked,
        "mismatches": mismatches,
        "detail": {
            "breakdown": summary,
            "by_source": _split_by_source(records),
            "served_from": counts,
            "daemon_stats_delta": delta,
            "not_visible": "kernel, executor and engine work runs in the daemon "
            "and its pool workers; only the client-side spans and the "
            "client-observed serve numbers are recorded",
        },
        "tracer": tracer,
        "daemon_workers": workers,
    }


# -- entry point -------------------------------------------------------------


def _print_breakdown(detail: dict) -> None:
    summary = detail["breakdown"]
    total = summary["total_s"]
    print(f"layer breakdown ({summary['threads']} thread(s) x {summary['wall_s']:.3f} s):")
    for layer, self_s in sorted(summary["layers_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {self_s:9.4f} s  {100.0 * self_s / total:5.1f}%")
    print(
        f"  {'unattributed':<14} {summary['unattributed_s']:9.4f} s  "
        f"{100.0 * summary['unattributed_s'] / total:5.1f}%   "
        f"(residual {summary['residual_s']:.2e} s)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {root / 'src' / 'repro'}; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = str(root / "src")
    work = root / ".perfbench_out"
    work.mkdir(exist_ok=True)

    if args.trace:
        if args.workload == "serve-mix":
            outcome = trace_serve(root, work, args.seed)
        else:
            outcome = trace_in_process(root, args.workload, args.seed)
        names = PER_LAYER
    elif args.workload == "serve-mix":
        outcome = run_serve(root, work, args.seed, args.seconds)
        names = END_TO_END
    else:
        outcome = run_in_process(root, args.workload, args.seed, args.seconds)
        names = END_TO_END

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = outcome.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(work / f"{stem}.spans.jsonl")
        _print_breakdown(outcome["detail"])
    for mismatch in outcome["mismatches"]:
        print(f"mismatch: {mismatch}")
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": names[name][0]} for name in names
    }
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root, args.seed, outcome["daemon_workers"]),
        "checked": outcome["checked"],
        "failed_fraction": outcome["failed"] / max(outcome["attempted"], 1),
        "moves": {name: PER_LAYER[name][2] for name in names} if args.trace else None,
        **outcome["detail"],
    }
    result = {
        "correct": not outcome["mismatches"] and outcome["checked"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    with open(work / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"detail": detail, "result": result}, handle, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
