"""End-to-end facade tests: the PR's acceptance criteria live here.

A two-pair scenario must evaluate through ``repro.api.evaluate`` with all
three executors bitwise-identical, and a sharded evaluation gathered from
a shared cache must be bitwise-identical to the unsharded run.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.api import evaluate, gather
from repro.campaign.cache import CampaignCache
from repro.campaign.spec import FadingSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.scenarios import (
    EvaluationResult,
    PowerPolicy,
    RelayPair,
    Scenario,
    Topology,
)


@pytest.fixture(scope="module")
def two_pair_scenario():
    """A small two-pair grid: 2 protocols x 1 power x 2 pairs x 4 draws."""
    gains = Topology(
        gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        pairs=(
            RelayPair(label="pair-1"),
            RelayPair(label="pair-2", gain_offsets_db=(-2.0, 3.0, -3.0)),
        ),
    )
    return Scenario(
        name="two-pair-test",
        description="two-pair acceptance grid",
        protocols=(Protocol.MABC, Protocol.HBC),
        topology=gains,
        power=PowerPolicy.uniform(powers_db=(10.0,)),
        fading=FadingSpec(n_draws=4, seed=7),
        objective="round_robin_sum_rate",
    )


@pytest.fixture(scope="module")
def reference(two_pair_scenario):
    return evaluate(two_pair_scenario, executor="serial")


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", ["process", "vectorized"])
    def test_two_pair_executors_bitwise_identical(
        self, two_pair_scenario, reference, executor
    ):
        result = evaluate(two_pair_scenario, executor=executor)
        assert result.values.tobytes() == reference.values.tobytes()

    def test_values_shape_matches_the_scenario_grid(self, two_pair_scenario, reference):
        spec = two_pair_scenario.to_campaign_spec()
        assert reference.values.shape == spec.grid_shape == (2, 1, 2, 1, 4)


class TestShardGatherEquivalence:
    def test_sharded_gather_bitwise_identical_to_unsharded(
        self, two_pair_scenario, reference, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            shard_run = evaluate(
                two_pair_scenario,
                shard=(index, 3),
                cache=cache,
                chunk_size=3,
            )
            assert shard_run.campaign.shard is not None
        gathered = gather(two_pair_scenario, cache)
        assert gathered.values.tobytes() == reference.values.tobytes()
        # A rerun is now served entirely from the shared cache.
        cached = evaluate(two_pair_scenario, cache=cache)
        assert cached.from_cache
        assert cached.values.tobytes() == reference.values.tobytes()


class TestEvaluationResult:
    def test_axis_access(self, reference):
        assert reference.axis_names == ("protocol", "power", "pair", "gains", "draw")
        assert reference.axis_index("pair") == 2
        assert reference.pair_axis == 2
        assert reference.axis_labels("pair") == ("pair-1", "pair-2")
        assert reference.axis_labels("protocol") == ("MABC", "HBC")
        with pytest.raises(InvalidParameterError):
            reference.axis_index("bogus")

    def test_round_robin_objective_reduces_the_pair_axis(self, reference):
        reduced = reference.objective_values()
        assert reduced.shape == (2, 1, 1, 4)
        expected = reference.values.mean(axis=2)
        assert np.array_equal(reduced, expected)

    def test_objective_rows_cover_protocols_and_powers(self, reference):
        rows = reference.objective_rows()
        assert [row[0] for row in rows] == ["MABC", "HBC"]
        assert rows[0][1] == 10.0
        assert rows[0][2] == pytest.approx(reference.values[0].mean())

    def test_sum_rate_objective_is_unreduced(self, two_pair_scenario):
        plain = Scenario(
            name="two-pair-plain",
            description="same grid, raw objective",
            protocols=two_pair_scenario.protocols,
            topology=two_pair_scenario.topology,
            power=two_pair_scenario.power,
            fading=two_pair_scenario.fading,
            objective="sum_rate",
        )
        result = evaluate(plain, executor="serial")
        assert result.objective_values().shape == result.values.shape

    def test_summary_delegation(self, reference):
        rows = reference.summary_rows(epsilon=0.1)
        assert len(rows) == 2
        assert reference.ergodic_mean(Protocol.HBC, 10.0) == pytest.approx(
            reference.values[1].mean()
        )
        with pytest.raises(InvalidParameterError):
            reference.summary_rows(epsilon=1.5)


    @pytest.mark.parametrize("epsilon", [-0.1, 1.5])
    def test_summary_rows_reject_outage_level_out_of_range(self, reference, epsilon):
        with pytest.raises(InvalidParameterError):
            reference.summary_rows(epsilon=epsilon)


class TestFacadeInputs:
    def test_evaluate_rejects_non_scenarios(self):
        with pytest.raises(InvalidParameterError):
            evaluate(42)

    def test_evaluate_by_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            evaluate("not-a-registered-scenario")

    def test_returns_evaluation_result(self, reference):
        assert isinstance(reference, EvaluationResult)
        assert reference.executor_name == "serial"


class TestAnalyticImports:
    def test_analytic_callers_never_load_the_link_simulator(self):
        """``import repro.api`` and an analytic evaluate skip ``repro.simulation``."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = textwrap.dedent(
            """
            import sys
            import repro.api

            def loaded():
                link = ("repro.simulation.engine", "repro.traffic.simulator")
                return [name for name in link if name in sys.modules]

            print(loaded())
            repro.api.evaluate("fading-ensemble")
            print(loaded())
            """
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.split("\n")[:2] == ["[]", "[]"]
