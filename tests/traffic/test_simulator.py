"""End-to-end traffic simulations: determinism, accounting, dominance."""

import numpy as np
import pytest

from repro.campaign.spec import LinkSimSpec, TrafficSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.traffic import (
    EventParked,
    FrameOutcomeStream,
    OutcomesPending,
    SCHEDULERS,
    realize_chunks,
    simulate_traffic,
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


def realize(stream, n):
    """Realize a batched stream's first ``n`` outcomes, chunk by chunk."""
    while stream.realized < n:
        realize_chunks([stream])
    return stream


def stream_of(protocol=Protocol.MABC, n_slots=8, seed=1, **kwargs):
    return FrameOutcomeStream(
        protocol,
        kwargs.pop("gains", PAPER_GAINS),
        kwargs.pop("power", 10.0),
        n_slots,
        np.random.default_rng(seed),
        codec=latency_link().codec(),
        **kwargs,
    )


class TestOutcomeStream:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_batched_matches_per_frame_bitwise(self, protocol):
        outcomes = {}
        for method in ("batched", "per-frame"):
            stream = stream_of(protocol, 32, 7, method=method)
            if method == "batched":
                realize(stream, 32)
            outcomes[method] = [stream.take() for _ in range(32)]
        assert outcomes["batched"] == outcomes["per-frame"]

    def test_chunk_size_never_changes_outcomes(self):
        reference = None
        for chunk in (1, 5, 64):
            stream = realize(stream_of(n_slots=24, seed=3, chunk=chunk), 24)
            outcomes = [stream.take() for _ in range(24)]
            if reference is None:
                reference = outcomes
            assert outcomes == reference

    def test_fused_streams_match_solo_streams(self):
        """Sharing an engine call never changes a stream's outcomes."""
        cases = [
            dict(seed=1, chunk=4),
            dict(seed=2, chunk=4, gains=LinkGains.from_db(-4.0, 2.0, 2.0)),
            dict(seed=3, chunk=4, power=3.0),
            dict(seed=4, chunk=5),
        ]
        solo = []
        for case in cases:
            stream = realize(stream_of(n_slots=14, **case), 14)
            solo.append([stream.take() for _ in range(14)])
        fused = [stream_of(n_slots=14, **case) for case in cases]
        while any(stream.realized < 14 for stream in fused):
            realize_chunks([s for s in fused if s.realized < 14])
        assert [[s.take() for _ in range(14)] for s in fused] == solo

    def test_batched_stream_parks_until_realized(self):
        stream = stream_of(n_slots=40, chunk=16)
        with pytest.raises(OutcomesPending) as pending:
            stream.peek()
        assert isinstance(pending.value, EventParked)
        assert pending.value.stream is stream
        assert stream.consumed == 0 and stream.realized == 0
        realize_chunks([stream])
        assert stream.realized == 16
        for _ in range(16):
            stream.take()
        with pytest.raises(OutcomesPending):
            stream.take()
        assert stream.consumed == 16
        realize_chunks([stream, stream])
        assert stream.realized == 32
        realize_chunks([stream])
        assert stream.realized == 40

    def test_peek_does_not_consume(self):
        stream = realize(stream_of(), 1)
        assert stream.peek() == stream.peek()
        assert stream.consumed == 0
        assert stream.peek() == stream.take()
        assert stream.consumed == 1

    def test_exhaustion_raises(self):
        stream = realize(stream_of(n_slots=2), 2)
        stream.take(), stream.take()
        with pytest.raises(InvalidParameterError):
            stream.take()
        with pytest.raises(InvalidParameterError):
            realize_chunks([stream])

    def test_per_frame_streams_are_not_chunk_realized(self):
        with pytest.raises(InvalidParameterError):
            realize_chunks([stream_of(method="per-frame")])

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            stream_of(n_slots=4, method="magic")


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

    @pytest.mark.parametrize("rate_scale", [float("nan"), float("inf")])
    def test_nonfinite_rate_scale_rejected(self, rate_scale):
        with pytest.raises(InvalidParameterError):
            self._run(latency_link(), rate_scale=rate_scale)


class TestStableThroughput:
    def _knee(self, link, seed=0):
        """One cell seeded ``[link.seed, seed]``: a one-cell batch at that index."""
        return traffic_link_values(
            Protocol.MABC,
            [PAPER_GAINS.gab],
            [PAPER_GAINS.gar],
            [PAPER_GAINS.gbr],
            [10.0],
            link=link,
            indices=[seed],
        )[0]

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

    def test_trafficless_link_rejected(self):
        with pytest.raises(InvalidParameterError, match="traffic"):
            traffic_link_values(
                Protocol.MABC,
                [0.2],
                [1.0],
                [3.16],
                [10.0],
                link=LinkSimSpec(n_rounds=8, payload_bits=32, seed=0),
                indices=[0],
            )

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


#: Three cells with mixed geometries and powers, in non-sorted flat order.
MIXED_GAINS = (
    PAPER_GAINS,
    LinkGains.from_db(-4.0, 2.0, 2.0),
    LinkGains.from_db(-12.0, -3.0, 1.0),
)
MIXED_POWERS = (10.0, 4.0, 16.0)
MIXED_INDICES = (4, 0, 9)


def driver_link(metric, scheduler):
    """Two pairs, 40 slots: one full outcome chunk and a short tail."""
    return LinkSimSpec(
        n_rounds=40,
        payload_bits=32,
        seed=11,
        metric=metric,
        traffic=TrafficSpec(
            rates=(0.5, 0.25),
            scheduler=scheduler,
            buffer_frames=6,
            arq_limit=3,
            pair_offsets_db=((0.0, 0.0, 0.0), (-2.0, 3.0, -3.0)),
            offered_loads=(0.5, 1.0, 1.5) if metric == "stable_throughput" else None,
        ),
    )


def mixed_values(link, *, method="batched", cells=slice(None)):
    return traffic_link_values(
        Protocol.TDBC,
        [g.gab for g in MIXED_GAINS][cells],
        [g.gar for g in MIXED_GAINS][cells],
        [g.gbr for g in MIXED_GAINS][cells],
        list(MIXED_POWERS)[cells],
        link=link,
        indices=list(MIXED_INDICES)[cells],
        method=method,
    )


class TestFusedDriver:
    """Every pair, load and cell of a batch realizes through shared calls."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("metric", ["latency", "stable_throughput"])
    def test_fused_batch_matches_per_frame_bitwise(self, metric, scheduler):
        link = driver_link(metric, scheduler)
        batched = mixed_values(link)
        assert batched.tobytes() == mixed_values(link, method="per-frame").tobytes()

    @pytest.mark.parametrize("metric", ["latency", "stable_throughput"])
    def test_one_cell_calls_match_the_fused_batch(self, metric):
        link = driver_link(metric, "opportunistic")
        singles = np.concatenate(
            [mixed_values(link, cells=slice(i, i + 1)) for i in range(3)]
        )
        assert mixed_values(link).tobytes() == singles.tobytes()

    def test_cells_and_loads_share_engine_calls(self, monkeypatch):
        from repro.traffic import outcomes

        widths = []
        fused = outcomes._realize_fused

        def recording(protocol, streams, length):
            widths.append(len(streams))
            return fused(protocol, streams, length)

        monkeypatch.setattr(outcomes, "_realize_fused", recording)
        mixed_values(driver_link("stable_throughput", "longest-queue"))
        # Every one of the 3 cells x 3 loads parks on its first served
        # slot, so the first refill realizes all nine in one call.
        assert widths[0] == 9
        assert sum(widths) > len(widths)
