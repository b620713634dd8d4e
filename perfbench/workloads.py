"""The in-process workloads: seeded request streams, runners and checks.

Every workload is a closed loop of *requests*. A request is one or more
scenarios the benchmark generates from ``(seed, workload, index)`` and
evaluates back to back through :func:`repro.api.evaluate`; the program
sees only those scenarios. Request ``i`` of a seed is the same on every
run, so a run that gets further simply evaluates a longer prefix of the
same stream.

Outputs are checked after the timed loop, never inside it:

* ``analytic-ensemble`` — sampled cells against the HiGHS LP oracle
  (``optimal_sum_rate``) within ``ORACLE_ATOL``, and bitwise against the
  ``serial`` executor's batch-of-one arithmetic;
* ``link-fer`` — a sampled cell's first wave, fused, against the per-round
  ``ProtocolEngine`` (``simulate_protocol(method="reference")``) bitwise,
  and the campaign value against the same cell run alone through the
  fused kernel bitwise;
* ``traffic-arq`` — a sampled queueing cell against
  ``traffic_link_values(method="per-frame")`` (the per-frame reference
  loop) bitwise.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

#: Grid of one analytic-ensemble request: 5 protocols x 4 powers x 750 draws.
ANALYTIC_POWERS_DB = (0.0, 5.0, 10.0, 15.0)
ANALYTIC_DRAWS = 750

#: Agreement required between the batched LP kernel and the HiGHS oracle
#: (the tolerance of the kernel's own cross-validation tests).
ORACLE_ATOL = 1e-7

#: Cells checked per run, drawn from the completed requests by the seed.
ANALYTIC_CHECKS = 24
LINK_CHECKS = 3
TRAFFIC_CHECKS = 1

#: Workload tags mixed into every request seed, so two workloads run with
#: the same ``--seed`` never share inputs.
_TAGS = {
    "analytic-ensemble": 1,
    "link-fer": 2,
    "traffic-arq": 3,
    "serve-mix": 4,
}


def request_seeds(seed: int, workload: str, index: int, count: int = 2) -> tuple:
    """``count`` 32-bit seeds for request ``index`` of ``workload``."""
    state = np.random.SeedSequence([int(seed), _TAGS[workload], int(index)])
    return tuple(int(x) for x in state.generate_state(count))


def _check_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator that picks which outputs a run checks."""
    return np.random.default_rng([int(seed), _TAGS[workload], 2**31])


@dataclasses.dataclass(frozen=True)
class Request:
    """One closed-loop request: scenarios evaluated back to back."""

    index: int
    scenarios: tuple

    @property
    def cells(self) -> int:
        return sum(s.to_campaign_spec().n_units for s in self.scenarios)


@dataclasses.dataclass
class Completed:
    """A request's evaluated results and its round-trip time."""

    request: Request
    latency_s: float
    results: list


def analytic_scenario(fading_seed: int, n_draws: int = ANALYTIC_DRAWS):
    """A quasi-static Rayleigh ensemble on the Fig. 4 geometry."""
    from repro.campaign.spec import FadingSpec
    from repro.core.protocols import Protocol
    from repro.scenarios.base import PowerPolicy
    from repro.scenarios.builtin import fading_ensemble_scenario

    return dataclasses.replace(
        fading_ensemble_scenario(),
        name="bench-analytic-ensemble",
        protocols=tuple(Protocol),
        power=PowerPolicy.uniform(powers_db=ANALYTIC_POWERS_DB),
        fading=FadingSpec(n_draws=n_draws, seed=fading_seed),
    )


def _link_fer_scenario(fading_seed: int, link_seed: int):
    from repro.campaign.spec import FadingSpec
    from repro.scenarios.builtin import operational_fading_fer_scenario

    base = operational_fading_fer_scenario()
    return dataclasses.replace(
        base,
        name="bench-link-fer",
        fading=FadingSpec(n_draws=base.fading.n_draws, seed=fading_seed),
        link=dataclasses.replace(base.link, seed=link_seed),
    )


def _traffic_scenarios(queue_seed: int, pairs_seed: int) -> tuple:
    from repro.scenarios.builtin import (
        multi_pair_scheduling_scenario,
        queueing_latency_scenario,
    )

    queueing = queueing_latency_scenario()
    pairs = multi_pair_scheduling_scenario()
    return (
        dataclasses.replace(
            queueing,
            name="bench-queueing-latency",
            link=dataclasses.replace(queueing.link, seed=queue_seed),
        ),
        dataclasses.replace(
            pairs,
            name="bench-multi-pair-scheduling",
            link=dataclasses.replace(pairs.link, seed=pairs_seed),
        ),
    )


def make_request(workload: str, seed: int, index: int) -> Request:
    """Request ``index`` of an in-process workload's seeded stream."""
    first, second = request_seeds(seed, workload, index)
    if workload == "analytic-ensemble":
        scenarios = (analytic_scenario(first),)
    elif workload == "link-fer":
        scenarios = (_link_fer_scenario(first, second),)
    elif workload == "traffic-arq":
        scenarios = _traffic_scenarios(first, second)
    else:
        raise ValueError(f"{workload!r} is not an in-process workload")
    return Request(index=index, scenarios=scenarios)


def warm_up(workload: str) -> None:
    """Fill lazy caches (LP structures, trellis, codecs) with a tiny request."""
    from repro.api import evaluate

    if workload == "analytic-ensemble":
        evaluate(analytic_scenario(0, n_draws=2))
    elif workload == "link-fer":
        scenario = _link_fer_scenario(0, 0)
        evaluate(
            dataclasses.replace(
                scenario,
                fading=dataclasses.replace(scenario.fading, n_draws=1),
                link=dataclasses.replace(
                    scenario.link, target_rel_error=None, max_rounds=None
                ),
            )
        )
    elif workload == "traffic-arq":
        for scenario in _traffic_scenarios(0, 0):
            evaluate(
                dataclasses.replace(
                    scenario, link=dataclasses.replace(scenario.link, n_rounds=4)
                )
            )


def run_request(request: Request, tracer=None) -> Completed:
    """Evaluate one request in-process; optionally under a root span."""
    from repro.api import evaluate

    started = time.perf_counter()
    if tracer is None:
        results = [evaluate(s) for s in request.scenarios]
    else:
        with tracer.span("request", request=request.index):
            results = [evaluate(s) for s in request.scenarios]
    return Completed(request, time.perf_counter() - started, results)


# -- output checks ----------------------------------------------------------


def _cell(spec, flat_index: int):
    """``(protocol, gab, gar, gbr, power)`` of one flat grid cell."""
    flat_gains = spec.sample_gain_draws().reshape(-1, 3)
    block, channel = divmod(int(flat_index), spec.n_channels)
    protocol, power, gain_scale = spec.block_params(block)
    gab, gar, gbr = flat_gains[channel]
    if gain_scale is not None:
        gab, gar, gbr = gab * gain_scale[0], gar * gain_scale[1], gbr * gain_scale[2]
    return protocol, float(gab), float(gar), float(gbr), float(power)


def _sampled_cells(completed: list, rng, count: int, scenario_index: int = 0):
    """``count`` (result, flat index) pairs drawn across completed requests."""
    picks = []
    for _ in range(count):
        done = completed[int(rng.integers(len(completed)))]
        result = done.results[scenario_index]
        flat = int(rng.integers(result.campaign.values.size))
        picks.append((result, flat))
    return picks


def _check_analytic(completed: list, rng) -> tuple:
    from repro.campaign.executors import SerialExecutor, UnitBatch
    from repro.channels.gains import LinkGains
    from repro.core.capacity import optimal_sum_rate
    from repro.core.gaussian import GaussianChannel

    serial = SerialExecutor()
    mismatches = []
    picks = _sampled_cells(completed, rng, ANALYTIC_CHECKS)
    for result, flat in picks:
        spec = result.campaign.spec
        value = result.campaign.values.ravel()[flat]
        protocol, gab, gar, gbr, power = _cell(spec, flat)
        oracle = optimal_sum_rate(
            protocol, GaussianChannel(gains=LinkGains(gab, gar, gbr), power=power)
        ).sum_rate
        batch = UnitBatch(
            protocol=protocol,
            gab=np.array([gab]),
            gar=np.array([gar]),
            gbr=np.array([gbr]),
            power=np.array([power]),
        )
        reference = serial.run([batch])[0][0]
        if abs(value - oracle) > ORACLE_ATOL:
            mismatches.append(f"cell {flat}: kernel {value!r} vs HiGHS {oracle!r}")
        if value.tobytes() != np.float64(reference).tobytes():
            mismatches.append(f"cell {flat}: vectorized {value!r} vs serial {reference!r}")
    return len(picks), mismatches


def _same_report(a, b) -> bool:
    return (
        a.n_rounds == b.n_rounds
        and a.a_to_b == b.a_to_b
        and a.b_to_a == b.b_to_a
        and a.relay_failures == b.relay_failures
        and np.float64(a.fer).tobytes() == np.float64(b.fer).tobytes()
    )


def _check_link(completed: list, rng) -> tuple:
    from repro.channels.gains import LinkGains
    from repro.simulation.montecarlo import simulate_protocol, simulate_protocol_cells

    mismatches = []
    picks = _sampled_cells(completed, rng, LINK_CHECKS)
    for result, flat in picks:
        spec = result.campaign.spec
        link = spec.link
        value = result.campaign.values.ravel()[flat]
        protocol, gab, gar, gbr, power = _cell(spec, flat)
        gains = LinkGains(gab, gar, gbr)

        def cell_rng():
            return np.random.default_rng([int(link.seed), flat])

        alone = simulate_protocol_cells(
            protocol,
            (gains,),
            power,
            link.n_rounds,
            (cell_rng(),),
            codec=link.codec(),
            target_rel_error=link.target_rel_error,
            max_rounds=link.max_rounds,
        )[0]
        if np.float64(alone.fer).tobytes() != value.tobytes():
            mismatches.append(f"cell {flat}: campaign {value!r} vs alone {alone.fer!r}")
        first_wave = simulate_protocol_cells(
            protocol, (gains,), power, link.n_rounds, (cell_rng(),), codec=link.codec()
        )[0]
        reference = simulate_protocol(
            protocol,
            gains,
            power,
            link.n_rounds,
            cell_rng(),
            codec=link.codec(),
            method="reference",
        )
        if not _same_report(first_wave, reference):
            mismatches.append(f"cell {flat}: fused first wave differs from reference")
    return len(picks), mismatches


def _check_traffic(completed: list, rng) -> tuple:
    from repro.traffic.simulator import traffic_link_values

    mismatches = []
    # Only queueing cells: a per-frame multi-pair cell costs seconds.
    picks = _sampled_cells(completed, rng, TRAFFIC_CHECKS, scenario_index=0)
    for result, flat in picks:
        spec = result.campaign.spec
        value = result.campaign.values.ravel()[flat]
        protocol, gab, gar, gbr, power = _cell(spec, flat)
        reference = traffic_link_values(
            protocol,
            np.array([gab]),
            np.array([gar]),
            np.array([gbr]),
            np.array([power]),
            link=spec.link,
            indices=np.array([flat]),
            method="per-frame",
        )[0]
        if value.tobytes() != np.float64(reference).tobytes():
            mismatches.append(f"cell {flat}: batched {value!r} vs per-frame {reference!r}")
    return len(picks), mismatches


_CHECKS = {
    "analytic-ensemble": _check_analytic,
    "link-fer": _check_link,
    "traffic-arq": _check_traffic,
}


def check(workload: str, completed: list, seed: int) -> tuple:
    """``(cells checked, mismatch descriptions)`` for a run's outputs."""
    if not completed:
        return 0, ["no request completed"]
    return _CHECKS[workload](completed, _check_rng(seed, workload))
