"""The operational objectives through the full campaign machinery.

Acceptance criteria of the batched-link and fused-cells PRs live here: an
operational scenario must evaluate through ``repro.api.evaluate``
bitwise-identically across all three executors, a sharded evaluation
gathered from a shared cache must equal the unsharded run byte for byte,
and the adaptive-budget / FER extensions must not move any pre-existing
spec hash (``metric``/``target_rel_error``/``max_rounds`` serialize only
when set).
"""

import pytest

from repro.api import evaluate, gather
from repro.campaign.cache import CampaignCache
from repro.campaign.spec import CampaignSpec, FadingSpec, LinkSimSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.scenarios import PowerPolicy, Scenario, Topology, list_scenarios


@pytest.fixture(scope="module")
def operational_scenario():
    """A small operational grid: 2 protocols x 2 powers x 2 geometries."""
    return Scenario(
        name="operational-test",
        description="operational acceptance grid",
        protocols=(Protocol.MABC, Protocol.TDBC),
        topology=Topology(
            gains=(
                LinkGains.from_db(-7.0, 0.0, 5.0),
                LinkGains.from_db(-3.0, 3.0, 3.0),
            ),
        ),
        power=PowerPolicy.uniform(powers_db=(0.0, 12.0)),
        objective="operational_goodput",
        link=LinkSimSpec(n_rounds=6, payload_bits=24, seed=5, code="test", crc="crc8"),
    )


@pytest.fixture(scope="module")
def reference(operational_scenario):
    return evaluate(operational_scenario, executor="serial")


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", ["process", "vectorized"])
    def test_operational_executors_bitwise_identical(
        self, operational_scenario, reference, executor
    ):
        result = evaluate(operational_scenario, executor=executor)
        assert result.values.tobytes() == reference.values.tobytes()

    def test_values_are_goodputs(self, reference):
        assert reference.values.shape == (2, 2, 2, 1)
        assert (reference.values >= 0.0).all()
        # At 12 dB the test codec decodes cleanly; at 0 dB it mostly
        # fails — the grid spans the operational waterfall.
        assert reference.values[:, 1].max() > reference.values[:, 0].min()

    def test_objective_values_unreduced(self, reference):
        assert reference.objective_values().shape == reference.values.shape


class TestShardGatherEquivalence:
    def test_sharded_gather_bitwise_identical_to_unsharded(
        self, operational_scenario, reference, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            shard_run = evaluate(
                operational_scenario,
                shard=(index, 3),
                cache=cache,
                chunk_size=2,
            )
            assert shard_run.campaign.shard is not None
        gathered = gather(operational_scenario, cache)
        assert gathered.values.tobytes() == reference.values.tobytes()
        cached = evaluate(operational_scenario, cache=cache)
        assert cached.from_cache
        assert cached.values.tobytes() == reference.values.tobytes()


class TestSpecIntegration:
    def test_registered_builtin_scenario(self):
        assert "operational-goodput" in list_scenarios()

    def test_link_spec_serialization_round_trip(self, operational_scenario):
        spec = operational_scenario.to_campaign_spec()
        restored = CampaignSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_link_changes_move_the_cache_key(self, operational_scenario):
        spec = operational_scenario.to_campaign_spec()
        other = Scenario(
            name=operational_scenario.name,
            description=operational_scenario.description,
            protocols=operational_scenario.protocols,
            topology=operational_scenario.topology,
            power=operational_scenario.power,
            objective="operational_goodput",
            link=LinkSimSpec(
                n_rounds=7, payload_bits=24, seed=5, code="test", crc="crc8"
            ),
        ).to_campaign_spec()
        assert other.spec_hash() != spec.spec_hash()

    def test_analytic_spec_hash_unchanged_by_link_field(self):
        # A spec without link must serialize without the key at all, so
        # classic analytic hashes (and cache entries) are untouched.
        spec = CampaignSpec(
            protocols=(Protocol.MABC,),
            powers_db=(10.0,),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        )
        assert "link" not in spec.to_dict()

    def test_scenario_round_trips_through_campaign_spec(self, operational_scenario):
        spec = operational_scenario.to_campaign_spec()
        restored = Scenario.from_campaign_spec(spec, name="restored")
        assert restored.objective == "operational_goodput"
        assert restored.link == operational_scenario.link
        assert restored.to_campaign_spec().spec_hash() == spec.spec_hash()


@pytest.fixture(scope="module")
def fading_fer_scenario():
    """A small adaptive fading-FER grid spanning the test codec's waterfall."""
    return Scenario(
        name="fading-fer-test",
        description="adaptive fading FER acceptance grid",
        protocols=(Protocol.DT, Protocol.MABC),
        topology=Topology(gains=(LinkGains.from_db(-7.0, 0.0, 5.0),)),
        power=PowerPolicy.uniform(powers_db=(-2.0, 12.0)),
        fading=FadingSpec(n_draws=3, seed=13),
        objective="operational_fer",
        link=LinkSimSpec(
            n_rounds=4,
            payload_bits=24,
            seed=3,
            code="test",
            crc="crc8",
            metric="fer",
            target_rel_error=0.5,
            max_rounds=16,
        ),
    )


class TestFadingFerScenario:
    @pytest.fixture(scope="class")
    def reference(self, fading_fer_scenario):
        return evaluate(fading_fer_scenario, executor="serial")

    @pytest.mark.parametrize("executor", ["process", "vectorized"])
    def test_executors_bitwise_identical(
        self, fading_fer_scenario, reference, executor
    ):
        result = evaluate(fading_fer_scenario, executor=executor)
        assert result.values.tobytes() == reference.values.tobytes()

    def test_values_are_frame_error_rates(self, reference):
        assert reference.values.shape == (2, 2, 1, 3)
        assert (reference.values >= 0.0).all()
        assert (reference.values <= 1.0).all()
        # Low power is error-dominated, high power mostly clean.
        assert reference.values[:, 0].mean() > reference.values[:, 1].mean()

    def test_sharded_gather_bitwise_identical(
        self, fading_fer_scenario, reference, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            evaluate(fading_fer_scenario, shard=(index, 3), cache=cache, chunk_size=2)
        gathered = gather(fading_fer_scenario, cache)
        assert gathered.values.tobytes() == reference.values.tobytes()

    def test_registered_builtin_scenario(self):
        assert "operational-fading-fer" in list_scenarios()

    def test_objective_values_unreduced(self, reference):
        assert reference.objective_values().shape == reference.values.shape


class TestAdaptiveSpecSerialization:
    def test_defaults_serialize_exactly_as_before(self):
        # Pre-fusion operational specs must keep their cache keys: the new
        # fields are absent from the serialized form when defaulted.
        data = LinkSimSpec(n_rounds=6, payload_bits=24, seed=5).to_dict()
        assert sorted(data) == [
            "code", "crc", "modulation", "n_rounds", "payload_bits", "seed",
        ]

    def test_adaptive_fields_serialized_only_when_set(self):
        data = LinkSimSpec(
            n_rounds=6, metric="fer", target_rel_error=0.4, max_rounds=48
        ).to_dict()
        assert data["metric"] == "fer"
        assert data["target_rel_error"] == 0.4
        assert data["max_rounds"] == 48

    def test_adaptive_spec_round_trips(self, fading_fer_scenario):
        spec = fading_fer_scenario.to_campaign_spec()
        restored = CampaignSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_adaptive_fields_move_the_cache_key(self):
        base = LinkSimSpec(n_rounds=6)
        spec = CampaignSpec(
            protocols=(Protocol.MABC,),
            powers_db=(10.0,),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            link=base,
        )
        adaptive = CampaignSpec(
            protocols=spec.protocols,
            powers_db=spec.powers_db,
            gains=spec.gains,
            link=LinkSimSpec(n_rounds=6, target_rel_error=0.4, max_rounds=12),
        )
        fer = CampaignSpec(
            protocols=spec.protocols,
            powers_db=spec.powers_db,
            gains=spec.gains,
            link=LinkSimSpec(n_rounds=6, metric="fer"),
        )
        assert adaptive.spec_hash() != spec.spec_hash()
        assert fer.spec_hash() != spec.spec_hash()

    def test_link_spec_adaptive_validation(self):
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=4, target_rel_error=0.4)
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=4, max_rounds=16)
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=4, target_rel_error=-0.1, max_rounds=16)
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=4, target_rel_error=0.4, max_rounds=2)
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=4, metric="ber")

    def test_fer_scenario_round_trips_through_campaign_spec(self, fading_fer_scenario):
        spec = fading_fer_scenario.to_campaign_spec()
        restored = Scenario.from_campaign_spec(spec, name="restored")
        assert restored.objective == "operational_fer"
        assert restored.link == fading_fer_scenario.link
        assert restored.to_campaign_spec().spec_hash() == spec.spec_hash()


class TestValidation:
    def test_objective_metric_must_agree_with_link(self):
        topology = Topology(gains=(LinkGains.from_db(-7.0, 0.0, 5.0),))
        with pytest.raises(InvalidParameterError):
            Scenario(
                name="bad",
                description="fer objective with goodput link",
                protocols=(Protocol.DT,),
                topology=topology,
                objective="operational_fer",
                link=LinkSimSpec(n_rounds=2),
            )
        with pytest.raises(InvalidParameterError):
            Scenario(
                name="bad",
                description="goodput objective with fer link",
                protocols=(Protocol.DT,),
                topology=topology,
                objective="operational_goodput",
                link=LinkSimSpec(n_rounds=2, metric="fer"),
            )

    def test_objective_and_link_must_agree(self):
        topology = Topology(gains=(LinkGains.from_db(-7.0, 0.0, 5.0),))
        with pytest.raises(InvalidParameterError):
            Scenario(
                name="bad",
                description="objective without link",
                protocols=(Protocol.DT,),
                topology=topology,
                objective="operational_goodput",
            )
        with pytest.raises(InvalidParameterError):
            Scenario(
                name="bad",
                description="link without objective",
                protocols=(Protocol.DT,),
                topology=topology,
                link=LinkSimSpec(n_rounds=2),
            )

    def test_link_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=0)
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=1, payload_bits=0)
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=1, code="turbo")
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=1, crc="crc64")
        with pytest.raises(InvalidParameterError):
            LinkSimSpec(n_rounds=1, modulation="qam")

    def test_link_spec_codec_construction(self):
        codec = LinkSimSpec(
            n_rounds=1, payload_bits=16, code="test", crc="crc8", modulation="qpsk"
        ).codec()
        assert codec.payload_bits == 16
        assert codec.crc.n_bits == 8
        assert codec.modulation.bits_per_symbol == 2

    def test_non_link_spec_rejects_bad_type(self):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.DT,),
                powers_db=(10.0,),
                gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
                link="not-a-spec",
            )
