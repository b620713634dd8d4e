"""Golden spec hashes: the axis refactor must not move the cache keys.

The content-addressed cache, the shard artifacts and the CI
shard-equivalence pipeline are all keyed by ``CampaignSpec.spec_hash()``.
These hex digests were recorded from the pre-GridAxis (PR 2) spec
implementation; if any of them changes, every existing cache entry and
shard artifact silently becomes unreachable — treat a failure here as a
compatibility break, not a test to update.
"""

import pytest

from repro.campaign.spec import CampaignSpec, FadingSpec, GridAxis
from repro.channels.gains import LinkGains
from repro.channels.pathloss import linear_relay_gains
from repro.core.protocols import Protocol
from repro.experiments.config import FIG3_DEFAULT

PAPER_GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
PAPER_PROTOCOLS = (Protocol.DT, Protocol.MABC, Protocol.TDBC, Protocol.HBC)


def fading_ensemble_spec():
    """The `fading-ensemble` scenario's grid (`scenarios run fading-ensemble`)."""
    return CampaignSpec(
        protocols=PAPER_PROTOCOLS,
        powers_db=(0.0, 10.0),
        gains=(PAPER_GAINS,),
        fading=FadingSpec(n_draws=200, seed=17),
    )


def fig3_placement_spec():
    """The grid the Fig. 3 placement sweep evaluates."""
    gains = tuple(
        linear_relay_gains(float(f), exponent=FIG3_DEFAULT.path_loss_exponent)
        for f in FIG3_DEFAULT.relay_fractions
    )
    return CampaignSpec(
        protocols=PAPER_PROTOCOLS,
        powers_db=(FIG3_DEFAULT.power_db,),
        gains=gains,
    )


def fig3_symmetric_spec():
    """The grid the Fig. 3 symmetric sweep evaluates."""
    gains = tuple(
        LinkGains.from_db(FIG3_DEFAULT.gab_db, float(g), float(g))
        for g in FIG3_DEFAULT.symmetric_gains_db
    )
    return CampaignSpec(
        protocols=PAPER_PROTOCOLS,
        powers_db=(FIG3_DEFAULT.power_db,),
        gains=gains,
    )


def ci_shard_grid_spec():
    """The CI shard-equivalence campaign (`$CAMPAIGN_GRID` in ci.yml)."""
    return CampaignSpec.from_placements(
        tuple(Protocol),
        (0.0, 10.0),
        4,
        fading=FadingSpec(n_draws=25, seed=3),
    )


def small_fading_spec():
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.HBC),
        powers_db=(0.0, 10.0),
        gains=(PAPER_GAINS,),
        fading=FadingSpec(n_draws=5, seed=3),
    )


def power_sweep_spec():
    return CampaignSpec(
        protocols=(
            Protocol.DT,
            Protocol.NAIVE4,
            Protocol.MABC,
            Protocol.TDBC,
            Protocol.HBC,
        ),
        powers_db=(-5.0, 0.0, 5.0, 10.0),
        gains=(PAPER_GAINS,),
    )


GOLDEN_HASHES = {
    "fading-ensemble": (
        fading_ensemble_spec,
        "500bf1138e116705f64e12c55799920be3a51538768094b5e8955eed5f6461a4",
    ),
    "fig3-placement": (
        fig3_placement_spec,
        "f68ca5ee887e7e91b81590aea6f49e0670b5746837734e3b175f107f1241d775",
    ),
    "fig3-symmetric": (
        fig3_symmetric_spec,
        "dff40dab2e8f7cf7eb8aa3b0087941f6f8280181bb416daa70bd16e76ced1b3a",
    ),
    "ci-shard-grid": (
        ci_shard_grid_spec,
        "80582c79591ffd8ee77f9e30683c680a74751ce55597a4f77b17545d1dbc17d0",
    ),
    "small-fading": (
        small_fading_spec,
        "87226d66b494a2602f01e3c491d43e8c7977c9421ec4696f01d2377b642cb67a",
    ),
    "power-sweep": (
        power_sweep_spec,
        "28f5163570f13c0561dd520e79962a14969c9567329e2f73551eec07cf1671c8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_classic_spec_hashes_are_byte_stable(name):
    factory, expected = GOLDEN_HASHES[name]
    assert factory().spec_hash() == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_classic_spec_dict_has_no_axes_key(name):
    """The serialized form of a 4-axis spec is exactly the legacy layout."""
    factory, _ = GOLDEN_HASHES[name]
    assert sorted(factory().to_dict()) == ["fading", "gains", "powers_db", "protocols"]


def test_extra_axes_change_the_hash():
    """Extensible axes are part of the content key, never silently ignored."""
    base = small_fading_spec()
    extended = CampaignSpec(
        protocols=base.protocols,
        powers_db=base.powers_db,
        gains=base.gains,
        fading=base.fading,
        extra_axes=(
            GridAxis(name="pair", values=({"gain_offsets_db": (0.0, 0.0, 0.0)},)),
        ),
    )
    assert extended.spec_hash() != base.spec_hash()
    assert "axes" in extended.to_dict()


def test_builtin_scenarios_lower_to_the_golden_grids():
    """Scenario lowering preserves the legacy cache keys of the figures."""
    from repro.scenarios import fading_ensemble_scenario, fig3_placement_scenario

    assert (
        fading_ensemble_scenario().to_campaign_spec().spec_hash()
        == GOLDEN_HASHES["fading-ensemble"][1]
    )
    assert (
        fig3_placement_scenario().to_campaign_spec().spec_hash()
        == GOLDEN_HASHES["fig3-placement"][1]
    )


#: Allocation-free scenarios recorded before per-node powers existed
#: (pre-``node_powers_db``). The power-allocation work serializes its
#: axis key only when a scenario actually sets one, so every spec below
#: must keep hashing byte-identically — a failure here means existing
#: cache entries and shard artifacts just became unreachable.
GOLDEN_SCENARIO_HASHES = {
    "fig4-operating-points": (
        "84688700e93490a32d3aeff6128fbe8269769a15101913af33e94e0a086d8eb6"
    ),
    "two-pair-round-robin": (
        "a218abc8dde52d1f7dde3552a85788beefb11c59dc9a90a04803d31da61d81e8"
    ),
    "operational-goodput": (
        "965d684d8c08f2f9b904b5447a69463cc74fe9e197d5bfd97029fd3b6cbb71d5"
    ),
    "operational-fading-fer": (
        "add3c2d1a6cc3e6b4422a89f24749df6f0a01d396b58dbbd2308eab842f825a5"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIO_HASHES))
def test_allocation_free_scenario_hashes_are_byte_stable(name):
    from repro.scenarios import get_scenario

    spec = get_scenario(name).to_campaign_spec()
    assert spec.spec_hash() == GOLDEN_SCENARIO_HASHES[name]
    assert not any(
        "node_powers_db" in value
        for axis in spec.extra_axes
        for value in axis.values
    )


# --- Importance sampling: serialize only when set ------------------------
#
# ``LinkSimSpec.importance_sampling`` joined the spec after every golden
# above was recorded. It must serialize *only when set* — a vanilla spec's
# dict (and therefore every hash above) is byte-identical to the pre-IS
# layout — while an IS-bearing spec folds the proposal into its content
# key so biased and vanilla campaigns can never share cache entries.


def test_vanilla_link_spec_dict_has_no_sampling_key():
    from repro.campaign.spec import LinkSimSpec

    link = LinkSimSpec(n_rounds=8, payload_bits=16, seed=1, metric="fer")
    assert "importance_sampling" not in link.to_dict()


def test_importance_sampling_serializes_defaults_sparsely():
    from repro.campaign.spec import LinkSimSpec
    from repro.simulation.sampling import ImportanceSamplingSpec

    link = LinkSimSpec(
        n_rounds=8,
        payload_bits=16,
        seed=1,
        metric="fer",
        importance_sampling=ImportanceSamplingSpec(noise_scale=1.1),
    )
    assert link.to_dict()["importance_sampling"] == {"noise_scale": 1.1}


def test_importance_sampling_changes_the_hash():
    from repro.campaign.spec import LinkSimSpec
    from repro.simulation.sampling import ImportanceSamplingSpec

    def spec_with(link):
        return CampaignSpec(
            protocols=(Protocol.DT,),
            powers_db=(0.0,),
            gains=(PAPER_GAINS,),
            link=link,
        )

    vanilla = spec_with(LinkSimSpec(n_rounds=8, payload_bits=16, seed=1, metric="fer"))
    biased = spec_with(
        LinkSimSpec(
            n_rounds=8,
            payload_bits=16,
            seed=1,
            metric="fer",
            importance_sampling=ImportanceSamplingSpec(noise_scale=1.1),
        )
    )
    assert vanilla.spec_hash() != biased.spec_hash()


def test_deepfade_scenario_hash_is_byte_stable():
    """The first IS-bearing golden, recorded when the scenario shipped."""
    from repro.scenarios import get_scenario

    spec = get_scenario("operational-deepfade-fer").to_campaign_spec()
    assert spec.spec_hash() == (
        "f83162ec1ba9212cbf0459dc0de902bbb6d3bcbc3f941d43c50695374aebed12"
    )
