"""Traffic objectives through the campaign stack.

The tentpole guarantees of the traffic layer's campaign wiring:

* a ``TrafficSpec`` serializes only when set, so every pre-traffic spec
  hash (and therefore every cache entry) is untouched;
* traffic cells evaluate **bitwise identically** under every executor
  and under ``--shard I/N`` + gather, because the one dispatch seam
  (``_evaluate_link_units``) seeds each cell from its flat unit index.
"""

import numpy as np
import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.engine import gather_campaign, run_campaign
from repro.campaign.spec import CampaignSpec, LinkSimSpec, TrafficSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError

PAPER_GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)


def traffic_spec():
    """A small (protocols x powers x gains) latency grid with 2 pairs."""
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC),
        powers_db=(8.0, 12.0),
        gains=(PAPER_GAINS, LinkGains.from_db(-4.0, 2.0, 2.0)),
        link=LinkSimSpec(
            n_rounds=48,
            payload_bits=32,
            seed=3,
            metric="latency",
            traffic=TrafficSpec(
                rates=(0.5, 0.25),
                buffer_frames=8,
                arq_limit=3,
                scheduler="longest-queue",
                pair_offsets_db=((0.0, 0.0, 0.0), (-2.0, 3.0, -3.0)),
            ),
        ),
    )


class TestTrafficSpecValidation:
    def test_metric_requires_traffic_parameters(self):
        with pytest.raises(InvalidParameterError, match="traffic"):
            LinkSimSpec(n_rounds=8, payload_bits=32, seed=0, metric="latency")

    def test_traffic_parameters_require_a_traffic_metric(self):
        with pytest.raises(InvalidParameterError, match="traffic"):
            LinkSimSpec(n_rounds=8, payload_bits=32, seed=0, traffic=TrafficSpec())

    def test_stable_throughput_requires_offered_loads(self):
        with pytest.raises(InvalidParameterError, match="offered_loads"):
            LinkSimSpec(
                n_rounds=8,
                payload_bits=32,
                seed=0,
                metric="stable_throughput",
                traffic=TrafficSpec(),
            )

    def test_traffic_rejects_adaptive_round_budgets(self):
        with pytest.raises(InvalidParameterError, match="fixed slot horizon"):
            LinkSimSpec(
                n_rounds=8,
                payload_bits=32,
                seed=0,
                metric="latency",
                traffic=TrafficSpec(),
                target_rel_error=0.3,
                max_rounds=32,
            )

    def test_rates_broadcast_or_match_pairs(self):
        two_pair = ((0.0, 0.0, 0.0), (-2.0, 3.0, -3.0))
        assert TrafficSpec(
            rates=(0.5,), pair_offsets_db=two_pair
        ).pair_rates() == (0.5, 0.5)
        assert TrafficSpec(
            rates=(0.5, 0.25), pair_offsets_db=two_pair
        ).pair_rates() == (0.5, 0.25)
        with pytest.raises(InvalidParameterError):
            TrafficSpec(rates=(0.5, 0.25, 0.1), pair_offsets_db=two_pair)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scheduler": "priority"},
            {"arrival": "selfsimilar"},
            {"buffer_frames": 0},
            {"arq_limit": 0},
            {"burst_size": 0},
            {"rates": (0.0,)},
            {"rates": (float("inf"),)},
            {"rates": (float("nan"),)},
            {"latency_quantile": 0.0},
            {"latency_quantile": 1.5},
            {"knee_tolerance": 1.0},
            {"offered_loads": (0.5, 0.0)},
            {"offered_loads": (float("inf"),)},
            {"offered_loads": (0.5, float("nan"))},
            {"pair_offsets_db": ()},
            {"pair_offsets_db": ((0.0, 1.0),)},
        ],
    )
    def test_malformed_traffic_parameters_rejected(self, overrides):
        with pytest.raises(InvalidParameterError):
            TrafficSpec(**overrides)


class TestTrafficSpecSerialization:
    def test_traffic_serializes_only_when_set(self):
        classic = CampaignSpec(
            protocols=(Protocol.MABC,),
            powers_db=(10.0,),
            gains=(PAPER_GAINS,),
            link=LinkSimSpec(n_rounds=8, payload_bits=32, seed=0),
        )
        assert "traffic" not in classic.to_dict()["link"]
        assert "traffic" in traffic_spec().to_dict()["link"]

    def test_round_trips_through_dict_with_stable_hash(self):
        spec = traffic_spec()
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_optional_fields_serialize_only_when_meaningful(self):
        base = TrafficSpec().to_dict()
        assert "burst_size" not in base
        assert "latency_quantile" not in base
        assert "offered_loads" not in base
        bursty = TrafficSpec(arrival="bursty", burst_size=3).to_dict()
        assert bursty["burst_size"] == 3
        swept = TrafficSpec(offered_loads=(0.5, 1.0)).to_dict()
        assert swept["offered_loads"] == [0.5, 1.0]
        assert "knee_tolerance" in swept

    def test_traffic_parameters_move_the_hash(self):
        spec = traffic_spec()
        other = traffic_spec()
        object.__setattr__(other.link.traffic, "scheduler", "opportunistic")
        assert spec.spec_hash() != CampaignSpec.from_dict(other.to_dict()).spec_hash()


class TestExecutorsAndSharding:
    @pytest.fixture(scope="class")
    def spec(self):
        return traffic_spec()

    @pytest.fixture(scope="class")
    def serial_values(self, spec):
        return run_campaign(spec, executor="serial", cache=False).values

    def test_latency_values_are_finite_and_positive(self, serial_values):
        assert np.all(np.isfinite(serial_values))
        assert np.all(serial_values >= 1.0)

    @pytest.mark.parametrize("executor", ["vectorized", "async"])
    def test_executors_agree_bitwise_on_traffic_grid(
        self, spec, serial_values, executor
    ):
        values = run_campaign(spec, executor=executor, cache=False).values
        assert np.array_equal(values, serial_values)

    def test_shard_gather_matches_unsharded_bitwise(
        self, spec, serial_values, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            run_campaign(
                spec,
                executor="vectorized",
                cache=cache,
                shard=spec.shard(index, 3),
            )
        gathered = gather_campaign(spec, cache)
        assert np.array_equal(gathered.values, serial_values)

    def test_cache_round_trip_is_bitwise(self, spec, serial_values, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(spec, executor="vectorized", cache=cache)
        reread = run_campaign(spec, executor="serial", cache=cache)
        assert reread.from_cache
        assert np.array_equal(reread.values, serial_values)
