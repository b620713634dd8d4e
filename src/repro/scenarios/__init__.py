"""Scenario-first evaluation: declarative scenarios, a registry, results.

This package is the seam between *what* gets evaluated and *how*: a
:class:`Scenario` declares topology (including multi-pair grids), channel
model, power policy, protocol set and objective; the registry resolves
scenarios by name; and :class:`EvaluationResult` is the labeled result
type returned by the one facade, :func:`repro.api.evaluate`.

Quickstart::

    from repro.api import evaluate
    from repro.scenarios import list_scenarios

    print(list_scenarios())
    result = evaluate("two-pair-round-robin")
    print(result.objective_rows())

Importing this package registers the built-in scenarios (the paper's
figures, the Section IV fading ensemble, and the first multi-pair grid).
"""

from . import builtin
from .base import OBJECTIVES, PowerPolicy, RelayPair, Scenario, Topology
from .catalog import catalog_entries, render_markdown
from .builtin import (
    PAPER_PROTOCOLS,
    fading_ensemble_scenario,
    fig3_placement_scenario,
    fig3_symmetric_scenario,
    fig4_operating_points_scenario,
    operational_goodput_scenario,
    two_pair_round_robin_scenario,
)
from .registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)
from .result import EvaluationResult
from .wire import request_to_scenario, scenario_to_request

__all__ = [
    "catalog_entries",
    "render_markdown",
    "request_to_scenario",
    "scenario_to_request",
    "builtin",
    "OBJECTIVES",
    "PowerPolicy",
    "RelayPair",
    "Scenario",
    "Topology",
    "PAPER_PROTOCOLS",
    "fading_ensemble_scenario",
    "fig3_placement_scenario",
    "fig3_symmetric_scenario",
    "fig4_operating_points_scenario",
    "operational_goodput_scenario",
    "two_pair_round_robin_scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "unregister_scenario",
    "EvaluationResult",
]
