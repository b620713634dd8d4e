"""The redesigned PowerPolicy API and the power-allocation scenarios."""

import numpy as np
import pytest

from repro.api import evaluate
from repro.campaign.spec import FadingSpec
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.information.functions import db_to_linear
from repro.scenarios import PowerPolicy, Scenario, Topology, get_scenario
from repro.scenarios.builtin import relay_share_splits

UNIFORM = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class TestFactories:
    def test_uniform_is_the_old_default(self):
        policy = PowerPolicy.uniform(powers_db=(0.0, 10.0))
        assert policy.powers_db == (0.0, 10.0)
        assert policy.allocations_db is None
        assert policy.allocation_axis() is None

    def test_per_node_builds_allocation_axis(self):
        policy = PowerPolicy.per_node(
            (10.0,),
            allocations_db=((0.0, 0.0, 0.0), (-3.0, -3.0, 3.0)),
            labels=("even", "relay-heavy"),
        )
        axis = policy.allocation_axis()
        assert axis is not None
        assert axis.name == "power_allocation"
        assert axis.display_labels == ("even", "relay-heavy")
        assert axis.values[1] == {"node_powers_db": [-3.0, -3.0, 3.0]}

    def test_single_zero_allocation_gets_no_axis(self):
        policy = PowerPolicy.per_node((10.0,), allocations_db=((0.0, 0.0, 0.0),))
        assert policy.allocation_axis() is None

    def test_sum_constrained_splits_the_budget(self):
        policy = PowerPolicy.sum_constrained(16.0, ((0.25, 0.25, 0.5), UNIFORM))
        assert policy.powers_db == (16.0,)
        total = db_to_linear(16.0)
        for split, allocation in zip(
            ((0.25, 0.25, 0.5), UNIFORM), policy.allocations_db
        ):
            node_powers = [db_to_linear(16.0 + offset) for offset in allocation]
            assert node_powers == pytest.approx([f * total for f in split], rel=1e-12)

    def test_sum_constrained_rejects_bad_splits(self):
        with pytest.raises(InvalidParameterError):
            PowerPolicy.sum_constrained(16.0, ((0.5, 0.5, 0.5),))
        with pytest.raises(InvalidParameterError):
            PowerPolicy.sum_constrained(16.0, ((1.0, 0.0, 0.0),))
        with pytest.raises(InvalidParameterError):
            PowerPolicy.sum_constrained(16.0, ())

    def test_allocation_labels_validated(self):
        with pytest.raises(InvalidParameterError):
            PowerPolicy.per_node(
                (10.0,),
                allocations_db=((0.0, 0.0, 0.0),),
                labels=("a", "b"),
            )


class TestDeprecationShim:
    """The bare constructor is silent and equals the ``uniform`` factory."""

    def test_direct_construction_is_silent(self, recwarn):
        policy = PowerPolicy(powers_db=(0.0, 10.0))
        assert policy.powers_db == (0.0, 10.0)
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_factories_are_warning_free(self, recwarn):
        PowerPolicy.uniform(powers_db=(10.0,))
        PowerPolicy.per_node((10.0,), allocations_db=((0.0, 0.0, 0.0),))
        PowerPolicy.sum_constrained(10.0, (UNIFORM,))
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_shimmed_instance_behaves_like_uniform(self):
        old = PowerPolicy(powers_db=(0.0, 10.0), offsets_db=(0.0, -3.0))
        new = PowerPolicy.uniform(powers_db=(0.0, 10.0), offsets_db=(0.0, -3.0))
        assert old == new


class TestRoundTrip:
    def _scenario(self, power, paper_gains, objective="sum_rate"):
        return Scenario(
            name="round-trip",
            description="power policy round-trip",
            protocols=(Protocol.MABC, Protocol.HBC),
            topology=Topology(gains=(paper_gains,)),
            power=power,
            fading=FadingSpec(n_draws=4, seed=9),
            objective=objective,
        )

    def test_uniform_round_trips(self, paper_gains):
        scenario = self._scenario(
            PowerPolicy.uniform(powers_db=(0.0, 10.0)), paper_gains
        )
        spec = scenario.to_campaign_spec()
        rebuilt = Scenario.from_campaign_spec(
            spec, name="round-trip", description="rebuilt"
        )
        assert rebuilt.to_campaign_spec().spec_hash() == spec.spec_hash()

    def test_per_node_round_trips(self, paper_gains):
        policy = PowerPolicy.per_node(
            (10.0,),
            allocations_db=((0.0, 0.0, 0.0), (-2.0, -2.0, 4.0)),
            labels=("even", "relay"),
        )
        scenario = self._scenario(policy, paper_gains)
        spec = scenario.to_campaign_spec()
        assert "power_allocation" in spec.axis_names
        rebuilt = Scenario.from_campaign_spec(
            spec, name="round-trip", description="rebuilt"
        )
        assert rebuilt.to_campaign_spec().spec_hash() == spec.spec_hash()
        assert rebuilt.power.allocations_db == policy.allocations_db

    def test_sum_constrained_round_trips(self, paper_gains):
        policy = PowerPolicy.sum_constrained(12.0, relay_share_splits(3))
        scenario = self._scenario(policy, paper_gains)
        spec = scenario.to_campaign_spec()
        rebuilt = Scenario.from_campaign_spec(
            spec, name="round-trip", description="rebuilt"
        )
        assert rebuilt.to_campaign_spec().spec_hash() == spec.spec_hash()

    def test_operational_scenarios_reject_allocations(self, paper_gains):
        from repro.campaign.spec import LinkSimSpec

        with pytest.raises(InvalidParameterError, match="analytic"):
            Scenario(
                name="bad",
                description="allocation on a link-level scenario",
                protocols=(Protocol.MABC,),
                topology=Topology(gains=(paper_gains,)),
                power=PowerPolicy.sum_constrained(10.0, (UNIFORM,)),
                link=LinkSimSpec(n_rounds=4, payload_bits=32, seed=1),
                objective="operational_goodput",
            )


class TestRelayShareSplits:
    def test_always_contains_the_exact_uniform_split(self):
        for n in (2, 3, 4, 7):
            assert UNIFORM in relay_share_splits(n)

    def test_splits_sum_to_one(self):
        for split in relay_share_splits(5):
            assert sum(split) == pytest.approx(1.0, abs=1e-12)


class TestPowerAllocationSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return evaluate("power-allocation-sweep", cache=False)

    def test_axes(self, result):
        assert "power_allocation" in result.axis_names
        assert result.scenario.objective == "allocation_optimum_sum_rate"

    def test_optimum_weakly_dominates_uniform_everywhere(self, result):
        labels = result.axis_labels("power_allocation")
        uniform_index = labels.index("0.333333/0.333333/0.333333")
        uniform_slice = np.take(
            result.values, uniform_index, axis=result.allocation_axis
        )
        optimum = result.objective_values()
        assert optimum.shape == uniform_slice.shape
        assert (optimum >= uniform_slice).all()

    def test_optimum_along_names_the_winning_split(self, result):
        best, labels = result.optimum_along("power_allocation")
        assert np.array_equal(best, result.objective_values())
        assert labels.shape == best.shape
        allowed = set(result.axis_labels("power_allocation"))
        assert set(labels.flat) <= allowed


class TestFiniteSnrDmtScenario:
    def test_symmetric_cell_reproduces_fading_statistics(self):
        from repro.simulation.montecarlo import fading_sum_rate_statistics

        result = evaluate("finite-snr-dmt", cache=False)
        scenario = result.scenario
        gains = scenario.topology.gains[0]
        for pi, protocol in enumerate(scenario.protocols):
            for wi, power_db in enumerate(scenario.power.powers_db):
                stats = fading_sum_rate_statistics(
                    protocol,
                    gains,
                    db_to_linear(power_db),
                    scenario.fading.n_draws,
                    np.random.default_rng(scenario.fading.seed),
                )
                cell = np.sort(result.values[pi, wi, 0, :])
                assert np.sort(stats.samples).tobytes() == cell.tobytes()


class TestRegistryParams:
    def test_factory_params_forwarded(self):
        scenario = get_scenario("finite-snr-dmt", n_draws=7, seed=5)
        assert scenario.fading.n_draws == 7
        assert scenario.fading.seed == 5

    def test_unknown_params_rejected_with_clear_error(self):
        with pytest.raises(InvalidParameterError, match="does not accept"):
            get_scenario("finite-snr-dmt", bogus=1)

    def test_instance_registrations_accept_no_params(self, paper_gains):
        from repro.scenarios import register_scenario, unregister_scenario

        scenario = Scenario(
            name="instance-registered",
            description="registered as a ready-made instance",
            protocols=(Protocol.MABC,),
            topology=Topology(gains=(paper_gains,)),
            grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007",
        )
        register_scenario(scenario)
        try:
            with pytest.raises(InvalidParameterError, match="does not accept"):
                get_scenario("instance-registered", n_draws=3)
        finally:
            unregister_scenario("instance-registered")
