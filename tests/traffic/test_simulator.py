"""End-to-end traffic simulations: determinism, accounting, dominance."""

import numpy as np
import pytest

from repro.campaign.spec import LinkSimSpec, TrafficSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.traffic import (
    FrameOutcomeStream,
    simulate_traffic,
    stable_throughput_knee,
    traffic_link_values,
)

PAPER_GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)


def latency_link(**overrides):
    traffic = overrides.pop(
        "traffic", TrafficSpec(rates=(0.5,), buffer_frames=8, arq_limit=3)
    )
    params = dict(
        n_rounds=64, payload_bits=32, seed=3, metric="latency", traffic=traffic
    )
    params.update(overrides)
    return LinkSimSpec(**params)


def two_pair_link(scheduler, *, seed=5, offered_loads=(0.4, 0.8, 1.2)):
    return LinkSimSpec(
        n_rounds=96,
        payload_bits=32,
        seed=seed,
        metric="stable_throughput",
        traffic=TrafficSpec(
            rates=(0.5, 0.125),
            scheduler=scheduler,
            buffer_frames=10,
            arq_limit=3,
            pair_offsets_db=((0.0, 0.0, 0.0), (-2.0, 3.0, -3.0)),
            offered_loads=offered_loads,
        ),
    )


class TestOutcomeStream:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_batched_matches_per_frame_bitwise(self, protocol):
        link = latency_link()
        codec = link.codec()
        outcomes = {}
        for method in ("batched", "per-frame"):
            stream = FrameOutcomeStream(
                protocol,
                PAPER_GAINS,
                10.0,
                32,
                np.random.default_rng(7),
                codec=codec,
                method=method,
            )
            outcomes[method] = [stream.take() for _ in range(32)]
        assert outcomes["batched"] == outcomes["per-frame"]

    def test_chunk_size_never_changes_outcomes(self):
        link = latency_link()
        codec = link.codec()
        reference = None
        for chunk in (1, 5, 64):
            stream = FrameOutcomeStream(
                Protocol.MABC,
                PAPER_GAINS,
                10.0,
                24,
                np.random.default_rng(3),
                codec=codec,
                chunk=chunk,
            )
            outcomes = [stream.take() for _ in range(24)]
            if reference is None:
                reference = outcomes
            assert outcomes == reference

    def test_peek_does_not_consume(self):
        stream = FrameOutcomeStream(
            Protocol.MABC,
            PAPER_GAINS,
            10.0,
            8,
            np.random.default_rng(1),
            codec=latency_link().codec(),
        )
        assert stream.peek() == stream.peek()
        assert stream.consumed == 0
        assert stream.peek() == stream.take()
        assert stream.consumed == 1

    def test_exhaustion_raises(self):
        stream = FrameOutcomeStream(
            Protocol.MABC,
            PAPER_GAINS,
            10.0,
            2,
            np.random.default_rng(1),
            codec=latency_link().codec(),
        )
        stream.take(), stream.take()
        with pytest.raises(InvalidParameterError):
            stream.take()

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            FrameOutcomeStream(
                Protocol.MABC,
                PAPER_GAINS,
                10.0,
                4,
                np.random.default_rng(1),
                codec=latency_link().codec(),
                method="magic",
            )


class TestSimulateTraffic:
    def _run(self, link, *, method="batched", seed=0, rate_scale=1.0):
        return simulate_traffic(
            Protocol.MABC,
            PAPER_GAINS,
            10.0,
            link=link,
            rng=np.random.default_rng([link.seed, seed]),
            method=method,
            rate_scale=rate_scale,
        )

    def test_same_spec_same_report(self):
        link = latency_link()
        assert self._run(link) == self._run(link)

    @pytest.mark.parametrize("arrival", ["poisson", "periodic", "bursty"])
    def test_batched_equals_per_frame_bitwise(self, arrival):
        link = latency_link(
            traffic=TrafficSpec(
                rates=(0.5,), arrival=arrival, buffer_frames=8, arq_limit=3
            )
        )
        assert self._run(link) == self._run(link, method="per-frame")

    def test_two_pair_batched_equals_per_frame_bitwise(self):
        link = two_pair_link("opportunistic")
        a = simulate_traffic(
            Protocol.MABC,
            PAPER_GAINS,
            10.0,
            link=link,
            rng=np.random.default_rng([5, 0]),
        )
        b = simulate_traffic(
            Protocol.MABC,
            PAPER_GAINS,
            10.0,
            link=link,
            rng=np.random.default_rng([5, 0]),
            method="per-frame",
        )
        assert a == b

    def test_flow_conservation(self):
        """Every generated frame is delivered, dropped, or still queued."""
        report = self._run(latency_link())
        for flow in report.flows:
            in_flight = flow.arrivals - (
                flow.delivered + flow.drops_buffer + flow.drops_arq
            )
            assert 0 <= in_flight <= 8

    def test_slot_accounting(self):
        report = self._run(latency_link())
        assert report.served_rounds + report.idle_slots == report.n_slots

    def test_flows_are_two_per_pair(self):
        report = self._run(latency_link())
        assert report.n_pairs == 1
        assert len(report.flows) == 2

    def test_overload_reports_buffer_drops(self):
        report = self._run(latency_link(), rate_scale=6.0)
        assert sum(f.drops_buffer for f in report.flows) > 0

    def test_latency_quantile_of_an_empty_run_is_inf(self):
        report = self._run(latency_link(), rate_scale=1.0)
        empty = report.flows[0].__class__(
            arrivals=0,
            delivered=0,
            drops_buffer=0,
            drops_arq=0,
            attempts=0,
            latencies=(),
        )
        starved = type(report)(
            n_slots=report.n_slots,
            n_pairs=1,
            flows=(empty, empty),
            served_rounds=0,
            idle_slots=report.n_slots,
        )
        assert starved.latency_quantile(0.95) == float("inf")

    def test_bad_quantile_rejected(self):
        report = self._run(latency_link())
        with pytest.raises(InvalidParameterError):
            report.latency_quantile(0.0)

    def test_trafficless_link_rejected(self):
        link = LinkSimSpec(n_rounds=8, payload_bits=32, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_traffic(
                Protocol.MABC,
                PAPER_GAINS,
                10.0,
                link=link,
                rng=np.random.default_rng(0),
            )

    def test_bad_rate_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            self._run(latency_link(), rate_scale=0.0)


class TestStableThroughput:
    def _knee(self, link, seed=0):
        return stable_throughput_knee(
            Protocol.MABC,
            PAPER_GAINS,
            10.0,
            link=link,
            rng=np.random.default_rng([link.seed, seed]),
        )

    def test_knee_is_a_swept_nominal_rate_or_zero(self):
        link = two_pair_link("opportunistic")
        nominal = 2.0 * sum(link.traffic.pair_rates())
        candidates = {0.0} | {s * nominal for s in link.traffic.offered_loads}
        assert self._knee(link) in candidates

    def test_work_conserving_weakly_dominates_round_robin(self):
        """The acceptance claim, at the registered scenario's asymmetry."""
        for seed in range(3):
            baseline = self._knee(two_pair_link("round-robin"), seed)
            for scheduler in ("longest-queue", "opportunistic"):
                assert self._knee(two_pair_link(scheduler), seed) >= baseline


class TestTrafficLinkValues:
    def test_values_depend_only_on_the_flat_index(self):
        link = latency_link()
        batch = traffic_link_values(
            Protocol.MABC,
            [0.2, 0.2, 0.2],
            [1.0, 1.0, 1.0],
            [3.16, 3.16, 3.16],
            [10.0, 10.0, 10.0],
            link=link,
            indices=[0, 1, 2],
        )
        singles = [
            traffic_link_values(
                Protocol.MABC,
                [0.2],
                [1.0],
                [3.16],
                [10.0],
                link=link,
                indices=[i],
            )[0]
            for i in range(3)
        ]
        assert np.array_equal(batch, np.array(singles))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidParameterError):
            traffic_link_values(
                Protocol.MABC,
                [0.2, 0.2],
                [1.0],
                [3.16],
                [10.0],
                link=latency_link(),
                indices=[0],
            )
