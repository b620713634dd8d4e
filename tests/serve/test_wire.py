"""Scenario reference format: name and inline-spec forms round-trip."""

import json

import pytest

from repro.campaign.spec import CampaignSpec, FadingSpec, LinkSimSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.scenarios import Scenario, get_scenario
from repro.scenarios.wire import request_to_scenario, scenario_to_request
from repro.serve.protocol import decode_frame, encode_frame
from repro.simulation.sampling import ImportanceSamplingSpec


@pytest.fixture()
def scenario():
    spec = CampaignSpec(
        protocols=(Protocol.MABC, Protocol.HBC),
        powers_db=(0.0, 10.0),
        gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        fading=FadingSpec(n_draws=5, seed=3),
    )
    return Scenario.from_campaign_spec(spec, name="wire-test")


class TestNameForm:
    def test_string_becomes_name_reference(self):
        assert scenario_to_request("fig4-operating-points") == {
            "name": "fig4-operating-points"
        }

    def test_resolves_through_registry(self):
        scenario = request_to_scenario({"name": "fig4-operating-points"})
        assert scenario.name == "fig4-operating-points"
        expected = get_scenario("fig4-operating-points").to_campaign_spec()
        assert scenario.to_campaign_spec().spec_hash() == expected.spec_hash()

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            request_to_scenario({"name": "no-such-scenario"})


class TestInlineForm:
    def test_round_trip_preserves_spec_hash(self, scenario):
        reference = scenario_to_request(scenario)
        assert reference["label"] == "wire-test"
        restored = request_to_scenario(reference)
        assert restored.name == "wire-test"
        assert (
            restored.to_campaign_spec().spec_hash()
            == scenario.to_campaign_spec().spec_hash()
        )

    def test_reference_is_json_plain(self, scenario):
        import json

        encoded = json.dumps(scenario_to_request(scenario))
        restored = request_to_scenario(json.loads(encoded))
        assert (
            restored.to_campaign_spec().spec_hash()
            == scenario.to_campaign_spec().spec_hash()
        )

    def test_objective_travels(self, scenario):
        reference = scenario_to_request(scenario)
        reference["objective"] = "round_robin_sum_rate"
        assert request_to_scenario(reference).objective == "round_robin_sum_rate"


class TestValidation:
    def test_rejects_non_mapping(self):
        with pytest.raises(InvalidParameterError):
            request_to_scenario("fig4-operating-points")

    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError):
            request_to_scenario({"name": "x", "shard": "1/2"})

    def test_rejects_both_name_and_spec(self, scenario):
        reference = scenario_to_request(scenario)
        reference["name"] = "fig4-operating-points"
        with pytest.raises(InvalidParameterError):
            request_to_scenario(reference)

    def test_rejects_neither(self):
        with pytest.raises(InvalidParameterError):
            request_to_scenario({})

    def test_rejects_bad_objective(self, scenario):
        reference = scenario_to_request(scenario)
        reference["objective"] = "maximize-vibes"
        with pytest.raises(InvalidParameterError):
            request_to_scenario(reference)

    def test_rejects_malformed_spec(self):
        with pytest.raises(InvalidParameterError):
            request_to_scenario({"spec": {"protocols": ["nope"]}})

    @pytest.mark.parametrize("field", ["powers_db", "gains"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_numbers(self, scenario, field, value):
        reference = json.loads(json.dumps(scenario_to_request(scenario)))
        if field == "powers_db":
            reference["spec"]["powers_db"] = [10.0, value]
        else:
            reference["spec"]["gains"][0][1] = value
        with pytest.raises(InvalidParameterError, match="finite"):
            request_to_scenario(reference)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_shift", float("nan")),
            ("noise_scale", float("inf")),
            ("target_snr_db", float("nan")),
            ("target_rel_error", float("nan")),
        ],
    )
    def test_rejects_non_finite_link_parameters(self, field, value):
        """NaN/Infinity tokens decode as floats; the spec must refuse them."""
        link = LinkSimSpec(
            n_rounds=8,
            payload_bits=24,
            seed=0,
            code="test",
            crc="crc8",
            metric="fer",
            target_rel_error=0.5,
            max_rounds=16,
            importance_sampling=ImportanceSamplingSpec(noise_scale=1.1),
        )
        spec = CampaignSpec(
            protocols=(Protocol.DT,),
            powers_db=(10.0,),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            link=link,
        )
        scenario = Scenario.from_campaign_spec(spec, name="non-finite")
        reference = scenario_to_request(scenario)
        if field == "target_rel_error":
            reference["spec"]["link"][field] = value
        else:
            reference["spec"]["link"]["importance_sampling"][field] = value
        request = {"op": "evaluate", "id": "r", "scenario": reference}
        frame = decode_frame(encode_frame(request))
        with pytest.raises(InvalidParameterError, match="finite"):
            request_to_scenario(frame["scenario"])

    def test_rejects_non_scenario_object(self):
        with pytest.raises(InvalidParameterError):
            scenario_to_request(42)
