"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They take about a minute: every workload's traced run is executed twice
on a short request prefix.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

#: Counts that must repeat exactly for one seed.
EXACT_COUNTS = (
    "unresolved_cells",
    "kernel.cells",
    "viterbi.rows",
    "traffic.events",
    "serve.computed",
    "serve.from_cache",
    "serve.joined",
)


def _traced_counts(workload: str, seed: int) -> dict:
    if workload == "serve-mix":
        work = ROOT / ".perfbench_out"
        work.mkdir(exist_ok=True)
        outcome = run.trace_serve(ROOT, work, seed, cycles=1)
    else:
        outcome = run.trace_in_process(ROOT, workload, seed, n_requests=2)
    assert not outcome["mismatches"]
    return {
        name: value
        for name, value in outcome["metrics"].items()
        if run.PER_LAYER[name][0] == "count"
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_repeats_every_count(workload):
    first = _traced_counts(workload, seed=5)
    second = _traced_counts(workload, seed=5)
    assert first == second
    # The counts the workload exists to exercise are non-trivial.
    exercised = {
        "analytic-ensemble": ("kernel.cells",),
        "link-fer": ("unresolved_cells", "viterbi.rows"),
        "traffic-arq": ("traffic.events", "viterbi.rows"),
        "serve-mix": ("serve.computed", "serve.from_cache", "serve.joined"),
    }[workload]
    assert all(first[name] > 0 for name in exercised)
    assert set(EXACT_COUNTS) <= set(first)


@pytest.mark.parametrize("workload", ["analytic-ensemble", "link-fer", "traffic-arq"])
def test_seed_determines_the_inputs(workload):
    def hashes(seed):
        request = workloads.make_request(workload, seed, 0)
        return [s.to_campaign_spec().spec_hash() for s in request.scenarios]

    assert hashes(1) == hashes(1)
    assert hashes(1) != hashes(2)


def test_seed_determines_the_serve_mix():
    from serving import MixLoad

    def cold_hashes(seed):
        load = MixLoad(daemon=None, seed=seed)
        return [load._scenario(0, 0, client)[1].to_campaign_spec().spec_hash() for client in (0, 1)]

    assert cold_hashes(1) == cold_hashes(1)
    assert cold_hashes(1) != cold_hashes(2)
    assert len(set(cold_hashes(1))) == 2


def test_layer_times_and_unattributed_add_up():
    tracer = Tracer()
    with tracer.span("request", request=0):
        with tracer.span("engine.run_campaign"):
            with tracer.span("kernel.batched_sum_rates"):
                pass
            with tracer.span("kernel.batched_sum_rates"):
                pass
    root = tracer.spans[-1]
    wall = (root["end"] - root["start"]) * 1.5
    summary = summarize(tracer.spans, wall, 1)
    assert set(summary["layers_self_s"]) == {"engine", "kernel"}
    assert summary["unattributed_s"] >= wall / 3 - 1e-9
    assert abs(summary["residual_s"]) < 1e-9


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _moves) in run.PER_LAYER.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link-fer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
