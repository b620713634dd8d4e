"""The `operational-deepfade-fer` scenario: rare-event FER, cross-validated.

One module-scoped evaluation of the registered scenario (the importance-
sampled fused kernel makes the whole 12-cell grid affordable), then:

* the realized FER grid spans deep fades (FER near 1) down to rare-event
  cells (FER below 1e-4) that vanilla Monte Carlo could never resolve at
  these budgets;
* cross-validation against the analytic machinery of ``repro.core``:
  within every (protocol, power) block, realized FER decreases
  monotonically as the LP-optimal sum rate's margin over the attempted
  operational rate grows, cells with comfortable analytic margin are
  (nearly) error-free, and cells the analytic curves place near outage
  fail hard;
* the adaptive accounting surfaces the cells that exhausted
  ``max_rounds`` without resolving.
"""

import pytest

from repro.api import evaluate
from repro.channels.gains import LinkGains
from repro.core.capacity import optimal_sum_rate
from repro.core.gaussian import GaussianChannel
from repro.scenarios import get_scenario
from repro.simulation.engine import PROTOCOL_PHASE_COUNTS

#: Analytic-margin thresholds calibrated against the scenario geometry:
#: margin = LP-optimal sum rate / attempted operational sum rate.
CLEAN_MARGIN, CLEAN_FER = 6.0, 5e-3
OUTAGE_MARGIN, OUTAGE_FER = 3.0, 0.3


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("operational-deepfade-fer")


@pytest.fixture(scope="module")
def outcome(scenario):
    return evaluate(scenario, executor="vectorized", cache=False)


@pytest.fixture(scope="module")
def cells(scenario, outcome):
    """(protocol, power_linear, margin, fer) for every grid cell."""
    spec = scenario.to_campaign_spec()
    draws = spec.sample_gain_draws().reshape(-1, 3)
    link = spec.link
    # Two payloads per round; a frame occupies one phase of
    # payload + CRC-16 + termination symbols under the rate-1/2 code.
    n_symbols = 2 * (link.payload_bits + 16 + 6)
    values = outcome.values  # (protocol, power, gains, draw)
    rows = []
    for i, protocol in enumerate(spec.protocols):
        attempted = 2 * link.payload_bits / (
            PROTOCOL_PHASE_COUNTS[protocol] * n_symbols
        )
        for j, power_db in enumerate(spec.powers_db):
            power = 10 ** (power_db / 10)
            block = []
            for d, draw in enumerate(draws):
                channel = GaussianChannel(gains=LinkGains(*draw), power=power)
                analytic = optimal_sum_rate(protocol, channel).sum_rate
                block.append((analytic / attempted, float(values[i, j, 0, d])))
            rows.append((protocol, power, block))
    return rows


def test_scenario_is_registered(scenario):
    assert scenario.name == "operational-deepfade-fer"
    assert scenario.link.importance_sampling is not None


def test_fer_grid_spans_the_rare_event_regime(outcome):
    values = outcome.values
    assert values.shape == (2, 2, 1, 3)
    assert values.max() > 0.3  # genuine deep fades
    assert 0.0 < values.min() < 1e-6  # rare-event cells, still resolved > 0


def test_fer_monotone_in_analytic_margin(cells):
    for protocol, _power, block in cells:
        ordered = sorted(block, key=lambda cell: cell[0])
        fers = [fer for _margin, fer in ordered]
        assert fers == sorted(fers, reverse=True), (
            f"{protocol}: FER not monotone in analytic margin: {block}"
        )


def test_clean_cells_match_the_analytic_curves(cells):
    checked = 0
    for _protocol, _power, block in cells:
        for margin, fer in block:
            if margin >= CLEAN_MARGIN:
                assert fer < CLEAN_FER, (margin, fer)
                checked += 1
    assert checked >= 2  # the grid genuinely exercises the clean regime


def test_outage_cells_fail_hard(cells):
    checked = 0
    for _protocol, _power, block in cells:
        for margin, fer in block:
            if margin <= OUTAGE_MARGIN:
                assert fer > OUTAGE_FER, (margin, fer)
                checked += 1
    assert checked >= 2  # ... and the outage regime


def test_unresolved_cells_are_surfaced(outcome):
    assert outcome.unresolved_cells == 3
