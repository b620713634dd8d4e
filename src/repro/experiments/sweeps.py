"""Parameter sweeps beyond the paper's fixed figures.

The paper evaluates two power points (Fig. 4) and one channel-quality
sweep (Fig. 3). Downstream users invariably ask the next questions:

* *how do the protocols scale with transmit power on my channel?*
  (:func:`sweep_powers`),
* *at exactly which power does TDBC overtake MABC?*
  (:func:`protocol_crossover_power` — the low/high-SNR regime boundary the
  paper describes qualitatively, located numerically with bisection),
* *which protocol should I run at each operating point?*
  (:func:`winner_table`).

Sweeps are power-sweep scenarios evaluated through the :mod:`repro.api`
facade: one declarative ``protocols × powers`` grid evaluated by the
vectorized executor in a handful of batched solves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..channels.gains import LinkGains
from ..core.capacity import optimal_sum_rate
from ..core.gaussian import GaussianChannel
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from ..information.functions import db_to_linear
from ..optimize.search import find_crossover

__all__ = [
    "PowerSweepRow",
    "sweep_powers",
    "protocol_crossover_power",
    "winner_table",
]

#: Default protocol set of a power sweep (every implemented protocol).
SWEEP_PROTOCOLS = (
    Protocol.DT,
    Protocol.NAIVE4,
    Protocol.MABC,
    Protocol.TDBC,
    Protocol.HBC,
)


@dataclass(frozen=True)
class PowerSweepRow:
    """Sum rates of every compared protocol at one transmit power."""

    power_db: float
    sum_rates: dict

    def winner(self) -> Protocol:
        """The protocol with the best sum rate at this power."""
        return max(self.sum_rates, key=lambda p: self.sum_rates[p])


def sweep_powers(
    gains: LinkGains,
    powers_db,
    *,
    protocols=SWEEP_PROTOCOLS,
    executor="vectorized",
    cache=None,
) -> list:
    """Optimal sum rate of each protocol across a power sweep.

    The sweep is a power-sweep scenario evaluated through
    :func:`repro.api.evaluate` (``executor``: campaign executor name or
    instance, ``None`` meaning the engine default ``vectorized``;
    ``cache`` forwarded to the engine, so the sweep is chunk-checkpointed
    and served from the content-addressed store on repetition).
    """
    powers = [float(p) for p in powers_db]
    if not powers:
        raise InvalidParameterError("at least one power point required")
    protocols = tuple(protocols)

    from ..api import evaluate
    from ..scenarios.builtin import power_sweep_scenario

    evaluation = evaluate(
        power_sweep_scenario(gains, powers, protocols),
        executor=executor,
        cache=cache,
    )
    return [
        PowerSweepRow(
            power_db=power_db,
            sum_rates={
                p: float(evaluation.values[pi, wi, 0, 0])
                for pi, p in enumerate(protocols)
            },
        )
        for wi, power_db in enumerate(powers)
    ]


def protocol_crossover_power(
    gains: LinkGains,
    first: Protocol,
    second: Protocol,
    *,
    low_db: float = -10.0,
    high_db: float = 30.0,
    tol: float = 1e-6,
) -> float | None:
    """The power (dB) where ``second``'s sum rate overtakes ``first``'s.

    Returns ``None`` when the ordering never flips on ``[low_db, high_db]``.
    The paper's qualitative statement — MABC dominates at low SNR, TDBC at
    high SNR — becomes, per channel, a concrete crossover power. (For the
    sum-rate metric on the Fig. 4 gains the flip happens in the max-Ra
    corner rather than the sum rate; with a more symmetric relay the
    sum-rate crossover exists, see the tests.)
    """

    def gap(power_db: float) -> float:
        channel = GaussianChannel(gains=gains, power=db_to_linear(power_db))
        return (
            optimal_sum_rate(second, channel).sum_rate
            - optimal_sum_rate(first, channel).sum_rate
        )

    lo_gap, hi_gap = gap(low_db), gap(high_db)
    if (lo_gap > 0) == (hi_gap > 0):
        return None
    return find_crossover(gap, low_db, high_db, tol=tol)


def winner_table(
    gains: LinkGains,
    powers_db,
    *,
    executor="vectorized",
    cache=None,
) -> list:
    """``(power_db, winner_name, margin)`` rows across a power sweep.

    The margin is the gap (bits/use) to the runner-up — how much choosing
    the right protocol is worth at each operating point.
    """
    rows = []
    for row in sweep_powers(gains, powers_db, executor=executor, cache=cache):
        ordered = sorted(row.sum_rates.items(), key=lambda kv: -kv[1])
        margin = ordered[0][1] - ordered[1][1]
        rows.append((row.power_db, ordered[0][0].name, margin))
    return rows
