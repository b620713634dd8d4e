"""Scenario-first evaluation: a custom multi-pair grid in ~30 lines.

Run with::

    PYTHONPATH=src python examples/multi_pair_scenario.py

Defines a three-pair network sharing one relay (each pair at its own
per-link dB offsets from the Fig. 4 base geometry), registers it,
evaluates it through the ``repro.api`` facade with the vectorized
executor, and prints the round-robin network sum rate per protocol —
the arXiv:1002.0123 baseline on top of the paper's per-pair bounds.
"""

from repro import FadingSpec, LinkGains, Protocol, evaluate, register_scenario
from repro.scenarios import PowerPolicy, RelayPair, Scenario, Topology


@register_scenario(name="three-pair-demo")
def three_pair_demo() -> Scenario:
    return Scenario(
        name="three-pair-demo",
        description="three pairs at staggered distances from one relay",
        protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
        topology=Topology(
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            pairs=(
                RelayPair(label="near"),
                RelayPair(label="mid", gain_offsets_db=(-1.0, 1.5, -1.5)),
                RelayPair(label="far", gain_offsets_db=(-3.0, 3.0, -4.0)),
            ),
        ),
        power=PowerPolicy.uniform(powers_db=(0.0, 10.0)),
        fading=FadingSpec(n_draws=200, seed=42),
        objective="round_robin_sum_rate",
        grounding="multi-pair baseline of Kim, Smida & Devroye, arXiv:1002.0123",
    )


def main() -> None:
    result = evaluate("three-pair-demo")
    spec = result.spec
    print(f"grid axes: {result.axis_names}")
    print(f"grid shape: {spec.grid_shape} ({spec.n_units} cells)")
    print(f"pairs: {result.axis_labels('pair')}\n")

    print("round-robin network sum rate [bits/use] "
          "(pair-axis mean, ensemble mean):")
    for protocol_name, power_db, value in result.objective_rows():
        print(f"  {protocol_name:>5s} @ {power_db:>4.1f} dB: {value:.4f}")

    # Per-pair detail at 10 dB: who pays for sharing the relay?
    print("\nper-pair HBC ergodic sum rate at 10 dB:")
    pair_axis = result.pair_axis
    hbc = spec.protocols.index(Protocol.HBC)
    p10 = spec.powers_db.index(10.0)
    for pi, label in enumerate(result.axis_labels("pair")):
        samples = result.values[hbc, p10].take(pi, axis=pair_axis - 2)
        print(f"  {label:>5s}: {samples.mean():.4f}")


if __name__ == "__main__":
    main()
