"""Importance sampling through the campaign seam, plus adaptive accounting.

Two contracts:

* An IS-bearing campaign is *bitwise identical* across executors and
  across shard-then-gather — the proposal twist lives inside the fused
  kernel, below everything the campaign layer permutes.
* ``CampaignResult.unresolved_cells`` surfaces how many adaptive cells
  exhausted ``max_rounds`` without meeting ``target_rel_error``, and is
  honestly ``None`` whenever the in-process tally cannot know (cache
  hits, worker processes, non-adaptive campaigns).
"""

import numpy as np
import pytest

from repro.campaign.engine import gather_campaign, run_campaign
from repro.campaign.spec import CampaignSpec, FadingSpec, LinkSimSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol


def importance_spec(**overrides):
    link_kwargs = {
        "n_rounds": 8,
        "payload_bits": 24,
        "seed": 5,
        "code": "test",
        "crc": "crc8",
        "metric": "fer",
        "importance_sampling": {"noise_scale": 1.05, "noise_shift": 0.1},
    }
    link_kwargs.update(overrides.pop("link_kwargs", {}))
    return CampaignSpec(
        protocols=(Protocol.DT, Protocol.NAIVE4),
        powers_db=(0.0, 6.0),
        gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        fading=FadingSpec(n_draws=3, seed=13),
        link=LinkSimSpec(**link_kwargs),
        **overrides,
    )


class TestBitwiseAcrossTheSeam:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_campaign(importance_spec(), executor="serial")

    def test_vectorized_matches_serial_bitwise(self, reference):
        vectorized = run_campaign(importance_spec(), executor="vectorized")
        assert vectorized.values.tobytes() == reference.values.tobytes()

    def test_sharded_then_gathered_matches_bitwise(self, reference, tmp_path):
        spec = importance_spec()
        for index in range(3):
            run_campaign(
                spec,
                shard=spec.shard(index, 3),
                cache=tmp_path,
                executor="vectorized",
            )
        gathered = gather_campaign(spec, tmp_path)
        assert gathered.values.tobytes() == reference.values.tobytes()

    def test_proposal_changes_the_realized_values(self, reference):
        """The twist is live: vanilla values differ from biased ones."""
        vanilla = importance_spec(link_kwargs={"importance_sampling": None})
        result = run_campaign(vanilla, executor="serial")
        assert result.values.tobytes() != reference.values.tobytes()


class TestUnresolvedAccounting:
    def adaptive_spec(self, **link_overrides):
        """High-SNR cells that cannot produce errors: never resolve."""
        link_kwargs = {
            "target_rel_error": 0.5,
            "max_rounds": 16,
            "importance_sampling": None,
        }
        link_kwargs.update(link_overrides)
        return CampaignSpec(
            protocols=(Protocol.DT,),
            powers_db=(20.0,),
            gains=(LinkGains.from_db(20.0, 20.0, 20.0),),
            fading=FadingSpec(n_draws=2, seed=13),
            link=LinkSimSpec(
                n_rounds=8,
                payload_bits=24,
                seed=5,
                code="test",
                crc="crc8",
                metric="fer",
                **link_kwargs,
            ),
        )

    def test_unresolved_cells_are_counted(self):
        result = run_campaign(self.adaptive_spec(), executor="vectorized")
        assert result.unresolved_cells == result.spec.n_units == 2

    def test_importance_sampled_unresolved_cells_are_counted(self):
        spec = self.adaptive_spec(importance_sampling={"noise_scale": 1.01})
        result = run_campaign(spec, executor="serial")
        assert result.unresolved_cells == 2

    def test_non_adaptive_campaign_reports_unknown(self):
        result = run_campaign(importance_spec(), executor="serial")
        assert result.unresolved_cells is None

    def test_all_cache_run_reports_unknown(self, tmp_path):
        spec = self.adaptive_spec()
        first = run_campaign(spec, cache=tmp_path, executor="vectorized")
        assert first.unresolved_cells == 2
        rerun = run_campaign(spec, cache=tmp_path, executor="vectorized")
        assert rerun.from_cache
        assert rerun.unresolved_cells is None

    def test_evaluation_result_passthrough(self):
        from repro.api import evaluate
        from repro.scenarios import Scenario

        scenario = Scenario.from_campaign_spec(
            self.adaptive_spec(),
            name="unresolved-probe",
            description="adaptive accounting passthrough",
            objective="operational_fer",
        )
        outcome = evaluate(scenario, executor="vectorized", cache=False)
        assert outcome.unresolved_cells == 2


class TestResolvedFlags:
    def test_reports_carry_resolution_flags(self):
        from repro.simulation.linkcodec import LinkCodec
        from repro.simulation.convolutional import TEST_CODE
        from repro.simulation.crc import CRC8
        from repro.simulation.montecarlo import simulate_protocol

        codec = LinkCodec(payload_bits=24, code=TEST_CODE, crc=CRC8)
        fixed = simulate_protocol(
            Protocol.DT,
            LinkGains.from_db(-7.0, 0.0, 5.0),
            1.0,
            8,
            np.random.default_rng(3),
            codec=codec,
        )
        assert fixed.resolved is None
        adaptive = simulate_protocol(
            Protocol.DT,
            LinkGains.from_db(-7.0, 0.0, 5.0),
            1.0,
            8,
            np.random.default_rng(3),
            codec=codec,
            target_rel_error=0.5,
            max_rounds=512,
        )
        assert adaptive.resolved in (True, False)
