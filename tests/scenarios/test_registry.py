"""Registry round-trip tests: register -> list -> resolve -> evaluate."""

import dataclasses

import pytest

from repro.campaign.spec import FadingSpec
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.scenarios import (
    PAPER_PROTOCOLS,
    PowerPolicy,
    Scenario,
    Topology,
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)

BUILTINS = (
    "fading-ensemble",
    "fig3-placement",
    "fig3-symmetric",
    "fig4-operating-points",
    "two-pair-round-robin",
)

#: Spec hash of the ``grid`` defaults; the cache entries of that grid are
#: keyed by it.
DEFAULT_GRID_HASH = "0528b94aa5f288377cddf6fbcb4784e8e682ee6241a35bf0989ab14c8aa0d495"


@pytest.fixture
def scratch_scenario(paper_gains):
    return Scenario(
        name="scratch-test-scenario",
        description="registry round-trip fixture",
        protocols=(Protocol.MABC,),
        topology=Topology(gains=(paper_gains,)),
        power=PowerPolicy.uniform(powers_db=(10.0,)),
        fading=FadingSpec(n_draws=2, seed=9),
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007",
    )


@pytest.fixture
def clean_registry():
    yield
    unregister_scenario("scratch-test-scenario")
    unregister_scenario("renamed-scenario")
    unregister_scenario("scratch-factory")


class TestBuiltins:
    def test_builtins_are_registered(self):
        names = list_scenarios()
        for name in BUILTINS:
            assert name in names

    def test_every_builtin_resolves_and_lowers(self):
        for name in list_scenarios():
            scenario = get_scenario(name)
            assert scenario.name == name
            assert scenario.to_campaign_spec().n_units > 0


class TestGridScenario:
    """The parameterized ``grid`` scenario lowers like a hand-built spec."""

    def test_defaults_keep_the_historical_grid_hash(self):
        spec = get_scenario("grid").to_campaign_spec()
        assert spec.spec_hash() == DEFAULT_GRID_HASH
        assert spec.protocols == PAPER_PROTOCOLS
        assert spec.powers_db == (10.0,)
        assert spec.fading == FadingSpec(n_draws=100, seed=0)

    def test_cli_and_library_forms_lower_identically(self):
        from repro.campaign.spec import CampaignSpec

        from_cli = get_scenario(
            "grid", protocols="mabc,hbc", powers_db=10, placements=3, draws=0
        )
        from_library = get_scenario(
            "grid",
            protocols=(Protocol.MABC, Protocol.HBC),
            powers_db=(10.0,),
            placements=3,
            draws=0,
        )
        expected = CampaignSpec.from_placements(
            (Protocol.MABC, Protocol.HBC), (10.0,), 3
        )
        assert from_cli.to_campaign_spec().spec_hash() == expected.spec_hash()
        assert from_library.to_campaign_spec().spec_hash() == expected.spec_hash()

    @pytest.mark.parametrize(
        "params",
        [{"draws": 2.5}, {"seed": "x"}, {"gab_db": (0.0, 1.0)}],
        ids=["fractional-draws", "string-seed", "tuple-gain"],
    )
    def test_bad_parameters_rejected(self, params):
        with pytest.raises(InvalidParameterError):
            get_scenario("grid", **params)


class TestRegistration:
    def test_register_instance_then_resolve(self, scratch_scenario, clean_registry):
        register_scenario(scratch_scenario)
        assert "scratch-test-scenario" in list_scenarios()
        assert get_scenario("scratch-test-scenario") == scratch_scenario

    def test_register_under_explicit_name(self, scratch_scenario, clean_registry):
        register_scenario(scratch_scenario, name="renamed-scenario")
        assert get_scenario("renamed-scenario") == scratch_scenario

    def test_register_factory_decorator(self, scratch_scenario, clean_registry):
        @register_scenario(name="scratch-factory")
        def scratch_factory():
            return scratch_scenario

        assert get_scenario("scratch-factory") == scratch_scenario

    def test_duplicate_name_rejected_unless_replace(
        self, scratch_scenario, clean_registry
    ):
        register_scenario(scratch_scenario)
        with pytest.raises(InvalidParameterError):
            register_scenario(scratch_scenario)
        register_scenario(scratch_scenario, replace=True)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_scenario("does-not-exist")

    def test_non_scenario_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_scenario(42)

    def test_factory_must_return_a_scenario(self, clean_registry):
        @register_scenario(name="scratch-factory")
        def scratch_factory():
            return "not a scenario"

        with pytest.raises(InvalidParameterError):
            get_scenario("scratch-factory")

    def test_ungrounded_instance_rejected_at_registration(
        self, scratch_scenario, clean_registry
    ):
        for grounding in ("", "  "):
            ungrounded = dataclasses.replace(scratch_scenario, grounding=grounding)
            with pytest.raises(InvalidParameterError, match="grounding"):
                register_scenario(ungrounded)
            assert "scratch-test-scenario" not in list_scenarios()

    def test_ungrounded_factory_rejected_when_built(
        self, scratch_scenario, clean_registry
    ):
        @register_scenario(name="scratch-factory")
        def scratch_factory():
            return dataclasses.replace(scratch_scenario, grounding="")

        with pytest.raises(InvalidParameterError, match="grounding"):
            get_scenario("scratch-factory")

    def test_every_registered_scenario_is_grounded(self):
        for name in list_scenarios():
            assert get_scenario(name).grounding.strip()


class TestEvaluateByName:
    def test_register_then_evaluate_by_name(self, scratch_scenario, clean_registry):
        from repro.api import evaluate

        register_scenario(scratch_scenario)
        result = evaluate("scratch-test-scenario", executor="serial")
        assert result.scenario == scratch_scenario
        assert result.values.shape == (1, 1, 1, 2)
