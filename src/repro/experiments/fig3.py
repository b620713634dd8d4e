"""Fig. 3 regeneration: optimal achievable sum rates of the four protocols.

The paper's Fig. 3 plots LP-optimized sum rates of DT, MABC, TDBC and HBC
at ``P = 15 dB`` with ``G_ab = 0 dB``, varying the relay channel quality.
The sweep variable is reconstructed two ways (see DESIGN.md):

* **placement sweep** — the relay moves along the ``a``–``b`` segment
  under a log-distance path-loss law (the cellular scenario of the
  introduction); ``G_ar`` and ``G_br`` follow from the geometry;
* **symmetric sweep** — ``G_ar = G_br`` swept directly in dB.

Both sweeps exhibit the claims the paper attaches to the figure: the HBC
optimum dominates MABC and TDBC everywhere and is *strictly* better in an
intermediate regime, so HBC does not reduce to either special case.

Both sweeps are the registered scenarios ``fig3-placement`` and
``fig3-symmetric`` evaluated through the :mod:`repro.api` facade;
:func:`fig3_result` assembles the figure artifact from those
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..channels.gains import LinkGains
from ..core.protocols import Protocol
from .config import FIG3_DEFAULT, Fig3Config

__all__ = [
    "Fig3Row",
    "Fig3Result",
    "fig3_result",
    "fig3_shape_checks",
    "PROTOCOL_ORDER",
]

#: Default protocol column order of the figure. Results carry their own
#: protocol axis (``Fig3Result.protocols``); this constant is only the
#: default for full four-protocol runs.
PROTOCOL_ORDER = (Protocol.DT, Protocol.MABC, Protocol.TDBC, Protocol.HBC)


@dataclass(frozen=True)
class Fig3Row:
    """One sweep point: the swept value, the gains, and every sum rate."""

    sweep_value: float
    gains: LinkGains
    sum_rates: dict

    def as_table_row(self) -> list:
        """Row for tabular reports: sweep value then per-protocol rates.

        Columns follow the row's own protocol order (the insertion order
        of ``sum_rates``, which is the scenario's protocol axis), so
        subset runs stay aligned with :meth:`Fig3Result.headers`.
        """
        return [self.sweep_value, *self.sum_rates.values()]


@dataclass(frozen=True)
class Fig3Result:
    """Both sweeps of the Fig. 3 reproduction."""

    config: Fig3Config
    placement_rows: tuple
    symmetric_rows: tuple
    protocols: tuple = PROTOCOL_ORDER

    def headers(self, sweep_name: str) -> list:
        """Table headers for one sweep, from this run's protocol axis."""
        return [sweep_name] + [p.name for p in self.protocols]

    def to_rows(self, rows) -> list:
        """Table rows for one sweep, aligned with :meth:`headers`."""
        return [
            [row.sweep_value] + [row.sum_rates[p] for p in self.protocols]
            for row in rows
        ]

    def best_protocol_per_row(self, rows) -> list:
        """Name of the sum-rate winner at each sweep point."""
        return [max(row.sum_rates, key=lambda p: row.sum_rates[p]).name for row in rows]


def _facade_rows(scenario, sweep_values, executor, cache) -> tuple:
    """One sweep as a scenario evaluated through the facade."""
    from ..api import evaluate

    evaluation = evaluate(scenario, executor=executor, cache=cache)
    rows = []
    for gi, (value, gains) in enumerate(zip(sweep_values, evaluation.spec.gains)):
        rows.append(
            Fig3Row(
                sweep_value=float(value),
                gains=gains,
                sum_rates={
                    p: float(evaluation.values[pi, 0, gi, 0])
                    for pi, p in enumerate(scenario.protocols)
                },
            )
        )
    return tuple(rows)


def fig3_result(
    config: Fig3Config = FIG3_DEFAULT,
    *,
    executor="vectorized",
    cache=None,
    protocols=PROTOCOL_ORDER,
) -> Fig3Result:
    """Compute both Fig. 3 sweeps.

    Every point solves one LP per protocol over rates and phase durations
    jointly, exactly the optimization the paper describes. Both sweeps
    evaluate as the ``fig3-placement`` / ``fig3-symmetric`` scenarios
    through :func:`repro.api.evaluate` (``executor``: campaign executor
    name or instance, ``None`` meaning the engine default ``vectorized``;
    ``cache`` forwarded to the engine, so the sweeps are
    chunk-checkpointed and resumable with a cache directory).
    ``protocols`` selects the compared protocol set; the result's tables
    derive their columns from it.
    """
    from ..scenarios.builtin import fig3_placement_scenario, fig3_symmetric_scenario

    protocols = tuple(protocols)

    def sweep_rows(scenario_factory, sweep_values) -> tuple:
        if not tuple(sweep_values):
            return ()
        scenario = scenario_factory(config, protocols)
        return _facade_rows(scenario, sweep_values, executor, cache)

    placement_rows = sweep_rows(fig3_placement_scenario, config.relay_fractions)
    symmetric_rows = sweep_rows(fig3_symmetric_scenario, config.symmetric_gains_db)

    return Fig3Result(
        config=config,
        placement_rows=placement_rows,
        symmetric_rows=symmetric_rows,
        protocols=protocols,
    )


def fig3_shape_checks(result: Fig3Result, *, tol: float = 1e-7) -> dict:
    """The paper's Fig. 3 claims as named boolean checks.

    Returns a mapping check-name -> bool; each check appears only when
    the protocols it compares are part of the run:

    * ``hbc_dominates`` — HBC >= max(MABC, TDBC) at every point (HBC
      contains both as special cases);
    * ``hbc_strictly_better_somewhere`` — strict inequality at some point
      ("the HBC protocol does not reduce to either of the MABC or TDBC
      protocols in general");
    * ``relay_protocols_beat_dt_somewhere`` — cooperation helps;
    * ``mabc_vs_tdbc_crossover`` — neither MABC nor TDBC dominates the
      other across the whole placement sweep (the relative-merit trade-off
      the Gaussian section is about).
    """
    have = set(result.protocols)
    all_rows = list(result.placement_rows) + list(result.symmetric_rows)
    checks = {}
    if {Protocol.HBC, Protocol.MABC, Protocol.TDBC} <= have:
        checks["hbc_dominates"] = all(
            row.sum_rates[Protocol.HBC]
            >= max(row.sum_rates[Protocol.MABC], row.sum_rates[Protocol.TDBC]) - tol
            for row in all_rows
        )
        checks["hbc_strictly_better_somewhere"] = any(
            row.sum_rates[Protocol.HBC]
            > max(row.sum_rates[Protocol.MABC], row.sum_rates[Protocol.TDBC]) + 1e-4
            for row in all_rows
        )
    relay = [p for p in (Protocol.MABC, Protocol.TDBC, Protocol.HBC) if p in have]
    if Protocol.DT in have and relay:
        checks["relay_protocols_beat_dt_somewhere"] = any(
            max(row.sum_rates[p] for p in relay) > row.sum_rates[Protocol.DT] + 1e-4
            for row in all_rows
        )
    if {Protocol.MABC, Protocol.TDBC} <= have:
        diffs = [
            row.sum_rates[Protocol.MABC] - row.sum_rates[Protocol.TDBC]
            for row in result.placement_rows
        ]
        crossover = max(diffs) > 1e-6 and min(diffs) < -1e-6
        checks["mabc_vs_tdbc_crossover"] = crossover or any(
            abs(d) <= 1e-6 for d in diffs
        )
    return checks
