"""Daemon behavior: served results are bitwise-identical to local runs,
identical in-flight requests deduplicate onto one job, hot requests come
straight from the cache, and overload/timeout/shutdown degrade cleanly."""

import asyncio
import math
import os
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import evaluate
from repro.campaign.engine import _cache_key, run_campaign
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.scenarios import Scenario, get_scenario
from repro.serve import CampaignServer, ServeClient, ServeConfig, ServeError
from repro.serve.protocol import decode_frame


@pytest.fixture()
def start_server(tmp_path):
    """Factory fixture: boot a daemon in a thread, tear it down after."""
    running = []

    def start(**overrides):
        index = len(running)
        options = {
            "socket_path": str(tmp_path / f"serve-{index}.sock"),
            "cache": str(tmp_path / f"cache-{index}"),
            "processes": 2,
        }
        options.update(overrides)
        config = ServeConfig(**options)
        server = CampaignServer(config)
        thread = threading.Thread(
            target=lambda: asyncio.run(server.serve_forever()), daemon=True
        )
        thread.start()
        client = ServeClient(config.socket_path, timeout=60)
        deadline = time.monotonic() + 15
        while True:
            try:
                client.ping()
                break
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        running.append((server, thread, client))
        return server, client

    yield start
    for server, thread, client in running:
        try:
            client.shutdown()
        except ServeError:
            pass
        thread.join(timeout=20)
        assert not thread.is_alive()


def _gate_evaluations(server):
    """Block every job at the evaluation seam until the gate is set."""
    gate = threading.Event()
    original = server._evaluate

    def gated(spec, options, progress):
        assert gate.wait(timeout=30)
        return original(spec, options, progress)

    server._evaluate = gated
    return gate


def _wait_for(predicate, timeout=15):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.02)


def _in_flight(client) -> int:
    return client.stats()["in_flight"]


def _raw_exchange(socket_path: str, line: bytes) -> list[dict]:
    """Send one raw request line; return every frame the daemon answers."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(socket_path)
        sock.sendall(line)
        with sock.makefile("rb") as stream:
            return [decode_frame(frame) for frame in stream]


def _assert_wire_exact(served, local_values) -> None:
    """The payload carried base64 bytes that decode to the local grid."""
    assert isinstance(served.payload["values"], str)
    assert served.values.tobytes() == local_values.tobytes()


class TestServedResults:
    def test_bitwise_identical_to_local(self, start_server):
        _, client = start_server()
        served = client.evaluate("fig4-operating-points")
        local = evaluate("fig4-operating-points")
        assert served.served_from == "computed"
        assert served.values.tobytes() == local.values.tobytes()

    def test_second_request_hits_cache(self, start_server):
        _, client = start_server()
        first = client.evaluate("fig4-operating-points")
        second = client.evaluate("fig4-operating-points")
        assert first.served_from == "computed"
        assert second.served_from == "cache"
        local = evaluate("fig4-operating-points").values
        _assert_wire_exact(first, local)
        _assert_wire_exact(second, local)
        stats = client.stats()["stats"]
        assert stats["served_from_cache"] == 1
        assert stats["computed"] == 1

    def test_cached_sign_set_nan_is_served_byte_for_byte(self, start_server):
        server, client = start_server()
        spec = get_scenario("fig4-operating-points").to_campaign_spec()
        grid = evaluate("fig4-operating-points").values.copy()
        # The NaN x86 makes of inf - inf, whose sign bit a JSON float drops.
        grid.flat[0] = np.array(0xFFF8000000000000, dtype="<u8").view("<f8")
        grid.flat[1] = -0.0
        server._store.store(_cache_key(spec), grid, spec.to_dict())
        served = client.evaluate("fig4-operating-points")
        assert served.served_from == "cache"
        _assert_wire_exact(served, grid)

    def test_cache_hit_hashes_the_spec_once(self, start_server, monkeypatch):
        _, client = start_server()
        client.evaluate("fig4-operating-points")
        calls = []
        spec_hash = CampaignSpec.spec_hash

        def counting_spec_hash(spec):
            calls.append(spec)
            return spec_hash(spec)

        monkeypatch.setattr(CampaignSpec, "spec_hash", counting_spec_hash)
        served = client.evaluate("fig4-operating-points")
        assert served.served_from == "cache"
        assert served.spec_hash == spec_hash(calls[0])
        assert len(calls) == 1

    def test_corrupt_cache_entry_is_discarded_and_recomputed(self, start_server):
        server, client = start_server()
        first = client.evaluate("fig4-operating-points")
        key = _cache_key(get_scenario("fig4-operating-points").to_campaign_spec())
        entry = server._store.path_for(key)
        entry.write_bytes(b"not a store entry")
        # Drop the chunk checkpoints too, so the grid must be recomputed
        # rather than reassembled.
        shutil.rmtree(server._store.chunk_dir_for(key))
        second = client.evaluate("fig4-operating-points")
        assert second.served_from == "computed"
        assert second.values.tobytes() == first.values.tobytes()
        assert server._store.load(key).tobytes() == first.values.tobytes()
        assert client.stats()["stats"]["computed"] == 2

    def test_non_finite_timeout_is_invalid_and_daemon_survives(self, start_server):
        server, client = start_server()
        line = (
            b'{"op":"evaluate","id":"r-nan","scenario":'
            b'{"name":"fig4-operating-points"},"options":{"timeout":NaN}}\n'
        )
        frames = _raw_exchange(server.config.socket_path, line)
        assert [frame["event"] for frame in frames] == ["error"]
        assert frames[0]["code"] == "invalid"
        assert frames[0]["retryable"] is False
        assert frames[0]["id"] == "r-nan"
        assert client.ping()["protocol_version"] == 2
        assert _in_flight(client) == 0

    def test_inline_scenario_with_fading(self, start_server):
        _, client = start_server()
        spec = CampaignSpec(
            protocols=(Protocol.MABC, Protocol.TDBC),
            powers_db=(0.0, 10.0),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            fading=FadingSpec(n_draws=7, seed=13),
        )
        scenario = Scenario.from_campaign_spec(spec, name="adhoc-fading")
        served = client.evaluate(scenario)
        reference = run_campaign(spec, executor="serial")
        assert served.values.tobytes() == reference.values.tobytes()
        assert served.payload["scenario"] == "adhoc-fading"

    def test_progress_events_stream(self, start_server):
        _, client = start_server()
        ticks = []
        client.evaluate(
            "fig4-operating-points",
            chunk_size=2,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks, "expected at least one progress event"
        assert ticks[-1][0] == ticks[-1][1]
        dones = [done for done, _ in ticks]
        assert dones == sorted(dones)

    def test_unknown_scenario_is_invalid(self, start_server):
        _, client = start_server()
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("no-such-scenario")
        assert excinfo.value.code == "invalid"

    def test_bad_executor_is_invalid(self, start_server):
        _, client = start_server()
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("fig4-operating-points", executor="warp-drive")
        assert excinfo.value.code == "invalid"


class TestDeduplication:
    def test_identical_in_flight_requests_share_one_job(self, start_server):
        server, client = start_server()
        gate = _gate_evaluations(server)
        results = {}

        def ask(tag):
            worker = ServeClient(server.config.socket_path, timeout=60)
            results[tag] = worker.evaluate("fig4-operating-points")

        first = threading.Thread(target=ask, args=("first",))
        first.start()
        _wait_for(lambda: _in_flight(client) == 1)
        second = threading.Thread(target=ask, args=("second",))
        second.start()
        _wait_for(lambda: client.stats()["stats"]["deduplicated"] == 1)
        assert _in_flight(client) == 1  # still one job, two subscribers
        gate.set()
        first.join(timeout=30)
        second.join(timeout=30)
        served = {results["first"].served_from, results["second"].served_from}
        assert served == {"computed", "joined"}
        local = evaluate("fig4-operating-points").values
        _assert_wire_exact(results["first"], local)
        _assert_wire_exact(results["second"], local)
        assert client.stats()["stats"]["computed"] == 1

    def test_request_after_completion_starts_fresh(self, start_server):
        server, client = start_server(cache=False)
        first = client.evaluate("fig4-operating-points")
        second = client.evaluate("fig4-operating-points")
        # Without a cache there is no hot path and no in-flight overlap:
        # both requests compute (and agree bitwise).
        assert first.served_from == "computed"
        assert second.served_from == "computed"
        assert first.values.tobytes() == second.values.tobytes()


class TestDegradation:
    def test_busy_backpressure(self, start_server):
        server, client = start_server(max_pending=1)
        gate = _gate_evaluations(server)
        holder = threading.Thread(
            target=lambda: ServeClient(server.config.socket_path, timeout=60).evaluate(
                "fig4-operating-points"
            )
        )
        holder.start()
        _wait_for(lambda: _in_flight(client) == 1)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("fig3-placement")
        assert excinfo.value.code == "busy"
        assert client.stats()["stats"]["rejected_busy"] == 1
        gate.set()
        holder.join(timeout=30)

    def test_request_timeout(self, start_server):
        server, client = start_server()
        gate = _gate_evaluations(server)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("fig4-operating-points", timeout=0.3)
        assert excinfo.value.code == "timeout"
        assert client.stats()["stats"]["timeouts"] == 1
        gate.set()
        # The job itself keeps running and lands in the cache.
        _wait_for(lambda: _in_flight(client) == 0)

    def test_shutdown_drains_in_flight_work(self, start_server):
        server, client = start_server()
        gate = _gate_evaluations(server)
        results = {}

        def ask():
            worker = ServeClient(server.config.socket_path, timeout=60)
            results["served"] = worker.evaluate("fig4-operating-points")

        inflight = threading.Thread(target=ask)
        inflight.start()
        _wait_for(lambda: _in_flight(client) == 1)
        client.shutdown()
        gate.set()
        inflight.join(timeout=30)
        served = results["served"]
        local = evaluate("fig4-operating-points")
        assert served.values.tobytes() == local.values.tobytes()
        # The daemon is gone: new connections are refused.
        probe = ServeClient(server.config.socket_path, timeout=5)
        _wait_for(lambda: not os.path.exists(server.config.socket_path), timeout=20)
        with pytest.raises(ServeError):
            probe.ping()

    def test_two_servers_cannot_share_a_socket(self, start_server, tmp_path):
        server, _ = start_server()
        clash = CampaignServer(
            ServeConfig(socket_path=server.config.socket_path, cache=False)
        )
        with pytest.raises(Exception, match="already listening"):
            asyncio.run(clash.start())


class TestServeConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"request_timeout": math.nan},
            {"request_timeout": math.inf},
            {"drain_timeout": math.nan},
            {"drain_timeout": math.inf},
            {"chunk_size": 0},
        ],
        ids=[
            "nan-request-timeout",
            "inf-request-timeout",
            "nan-drain-timeout",
            "inf-drain-timeout",
            "zero-chunk-size",
        ],
    )
    def test_rejects_at_construction(self, tmp_path, overrides):
        with pytest.raises(InvalidParameterError):
            ServeConfig(socket_path=str(tmp_path / "s.sock"), **overrides)


class TestFacadeRoute:
    def test_evaluate_server_is_bitwise_identical(self, start_server):
        server, _ = start_server()
        via_server = evaluate("fig4-operating-points", server=server.config.socket_path)
        local = evaluate("fig4-operating-points")
        assert via_server.values.tobytes() == local.values.tobytes()
        assert via_server.executor_name.startswith("serve:")

    def test_server_route_owns_cache_and_shard(self, start_server, tmp_path):
        server, _ = start_server()
        with pytest.raises(InvalidParameterError):
            evaluate(
                "fig4-operating-points",
                server=server.config.socket_path,
                cache=tmp_path / "elsewhere",
            )
        with pytest.raises(InvalidParameterError):
            evaluate(
                "fig4-operating-points",
                server=server.config.socket_path,
                shard=(0, 2),
            )

    def test_server_route_accepts_client_instance(self, start_server):
        server, client = start_server()
        result = evaluate("fig4-operating-points", server=client)
        assert result.values.shape == result.spec.grid_shape
        assert not np.isnan(result.values).any()
