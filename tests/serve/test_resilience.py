"""Serve-layer resilience: liveness snapshots, structured retryability, and
client reconnect-and-retry under injected socket faults.

The client-facing guarantee mirrors the engine's: under injected socket
chaos a request either returns the bitwise-identical result (after
transparent retries — safe because identical requests dedup server-side)
or raises one typed :class:`ServeError` whose ``retryable`` flag tells
the caller whether trying again makes sense.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.api import evaluate
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import CampaignTimeoutError
from repro.faults import FaultPlan, FaultRule
from repro.serve import CampaignServer, ServeClient, ServeConfig, ServeError
from repro.serve.protocol import decode_frame, encode_frame


@pytest.fixture()
def start_server(tmp_path):
    """Factory fixture: boot a (possibly fault-armed) daemon in a thread."""
    running = []

    def start(fault_plan=None, **overrides):
        index = len(running)
        options = {
            "socket_path": str(tmp_path / f"serve-{index}.sock"),
            "cache": str(tmp_path / f"cache-{index}"),
            "processes": 2,
        }
        options.update(overrides)
        config = ServeConfig(**options)
        server = CampaignServer(config, fault_plan=fault_plan)
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


def socket_plan(kind, event, **kwargs):
    """A plan severing/delaying the first outbound frame of ``event``."""
    return FaultPlan(rules=(FaultRule(kind=kind, site=event, **kwargs),))


class TestStatsSnapshot:
    def test_stats_snapshot(self, start_server):
        _, client = start_server()
        snapshot = client.stats()
        assert snapshot["event"] == "stats"
        assert snapshot["status"] == "ok"
        assert snapshot["executor"] == "async"
        assert snapshot["in_flight"] == 0
        assert snapshot["pool_rebuilds"] == 0
        assert snapshot["faults_injected"] == {}
        assert snapshot["stats"]["requests"] >= 1
        assert snapshot["cache"] is True

    def test_stats_reports_process_pool_size(self, start_server):
        _, client = start_server(executor="process", processes=1)
        snapshot = client.stats()
        assert snapshot["executor"] == "process"
        assert snapshot["processes"] == 1

    def test_stats_via_cli_printer(self, start_server, capsys):
        from repro.cli import main

        server, _ = start_server()
        assert main(["client", "--socket", server.config.socket_path, "stats"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "pool_rebuilds: 0" in out
        assert "requests: " in out

    def test_health_op_is_refused_as_invalid(self, start_server):
        server, client = start_server()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(server.config.socket_path)
            sock.sendall(encode_frame({"op": "health", "id": "h-1"}))
            reply = decode_frame(sock.makefile("rb").readline())
        assert reply["event"] == "error"
        assert reply["code"] == "invalid"
        assert reply["id"] == "h-1"
        assert "health" in reply["message"]
        # The daemon keeps serving after refusing the frame.
        assert client.ping()["event"] == "pong"


class TestRetryableFlags:
    def test_invalid_is_not_retryable(self, start_server):
        _, client = start_server()
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("no-such-scenario")
        assert excinfo.value.code == "invalid"
        assert excinfo.value.retryable is False

    def test_busy_is_retryable(self, start_server):
        server, client = start_server(max_pending=1)
        gate = _gate_evaluations(server)
        holder = threading.Thread(
            target=lambda: ServeClient(server.config.socket_path, timeout=60).evaluate(
                "fig4-operating-points"
            )
        )
        holder.start()
        _wait_for(lambda: client.stats()["in_flight"] == 1)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("fig3-placement")
        assert excinfo.value.code == "busy"
        assert excinfo.value.retryable is True
        gate.set()
        holder.join(timeout=30)

    def test_subscriber_timeout_is_retryable(self, start_server):
        server, client = start_server()
        gate = _gate_evaluations(server)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("fig4-operating-points", timeout=0.3)
        assert excinfo.value.code == "timeout"
        assert excinfo.value.retryable is True
        gate.set()
        _wait_for(lambda: client.stats()["in_flight"] == 0)

    def test_unreachable_is_not_retryable(self, tmp_path):
        client = ServeClient(str(tmp_path / "nobody-home.sock"), retries=5)
        started = time.monotonic()
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.retryable is False
        # Not retried: no backoff schedule was slept through.
        assert time.monotonic() - started < 1.0


class TestClientReconnect:
    def test_severed_result_frame_is_retried_to_success(self, start_server):
        server, _ = start_server(fault_plan=socket_plan("socket-close", "result"))
        client = ServeClient(server.config.socket_path, timeout=60, retries=2)
        served = client.evaluate("fig4-operating-points")
        local = evaluate("fig4-operating-points")
        assert served.values.tobytes() == local.values.tobytes()
        # The first attempt computed and cached before the frame was
        # severed, so the retry is served from the store.
        assert served.served_from == "cache"
        snapshot = client.stats()
        assert snapshot["faults_injected"] == {"socket-close": 1}

    def test_torn_result_frame_is_retried_to_success(self, start_server):
        server, _ = start_server(fault_plan=socket_plan("socket-drop", "result"))
        client = ServeClient(server.config.socket_path, timeout=60, retries=2)
        served = client.evaluate("fig4-operating-points")
        local = evaluate("fig4-operating-points")
        assert served.values.tobytes() == local.values.tobytes()
        assert client.stats()["faults_injected"] == {"socket-drop": 1}

    def test_severed_accepted_frame_rejoins_the_job(self, start_server):
        server, _ = start_server(fault_plan=socket_plan("socket-close", "accepted"))
        client = ServeClient(server.config.socket_path, timeout=60, retries=2)
        served = client.evaluate("fig4-operating-points")
        local = evaluate("fig4-operating-points")
        # The severed request's job kept running server-side; the retry
        # joined it (or read its finished result) — never a second
        # divergent evaluation.
        assert served.values.tobytes() == local.values.tobytes()
        assert client.stats()["stats"]["computed"] == 1

    def test_delayed_frame_times_out_then_retries(self, start_server):
        server, _ = start_server(
            fault_plan=socket_plan("socket-delay", "pong", delay_seconds=3.0)
        )
        client = ServeClient(
            server.config.socket_path, timeout=1.0, retries=1, backoff_base=0.0
        )
        # First pong stalls past the socket timeout; the retry's pong is
        # prompt (the rule fires once per frame ordinal).
        pong = client.ping()
        assert pong["protocol_version"] >= 1
        assert client.stats()["faults_injected"] == {"socket-delay": 1}

    def test_zero_retries_surfaces_the_disconnect(self, start_server):
        server, _ = start_server(fault_plan=socket_plan("socket-close", "result"))
        client = ServeClient(server.config.socket_path, timeout=60, retries=0)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("fig4-operating-points")
        assert excinfo.value.code == "disconnected"
        assert excinfo.value.retryable is True

    def test_negative_retries_rejected(self, tmp_path):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            ServeClient(str(tmp_path / "x.sock"), retries=-1)


class TestEngineFaultsThroughDaemon:
    def test_chunk_retries_recover_and_are_reported(self, start_server):
        plan = FaultPlan(rules=(FaultRule(kind="chunk-error", site="chunk["),))
        server, client = start_server(fault_plan=plan)
        served = client.evaluate("fig4-operating-points")
        local = evaluate("fig4-operating-points")
        assert served.values.tobytes() == local.values.tobytes()
        assert served.payload["chunk_retries"] >= 1
        assert client.stats()["stats"]["chunk_retries"] >= 1

    def test_worker_death_recovers_and_is_reported(self, start_server):
        plan = FaultPlan(rules=(FaultRule(kind="worker-death", site="chunk["),))
        server, client = start_server(fault_plan=plan)
        served = client.evaluate("fig4-operating-points")
        local = evaluate("fig4-operating-points")
        assert served.values.tobytes() == local.values.tobytes()
        assert served.payload["pool_rebuilds"] >= 1
        assert client.stats()["pool_rebuilds"] >= 1


class TestDeadlinePropagation:
    def spec(self):
        return CampaignSpec(
            protocols=(Protocol.MABC, Protocol.TDBC),
            powers_db=(0.0, 10.0),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            fading=FadingSpec(n_draws=12, seed=11),
        )

    def test_request_deadline_reaches_the_chunk_loop(self, tmp_path):
        # Direct seam test (no sockets, no timing races): a deadline that
        # has effectively already passed aborts the engine between chunks
        # with the typed error the daemon maps to a retryable "timeout".
        server = CampaignServer(
            ServeConfig(socket_path=str(tmp_path / "s.sock"), cache=str(tmp_path))
        )
        with pytest.raises(CampaignTimeoutError):
            server._evaluate(
                self.spec(), {"timeout": 1e-9, "executor": "serial"}, progress=None
            )

    def test_cached_grid_is_served_even_past_the_deadline(self, tmp_path):
        server = CampaignServer(
            ServeConfig(socket_path=str(tmp_path / "s.sock"), cache=str(tmp_path))
        )
        spec = self.spec()
        warm = server._evaluate(spec, {"executor": "serial"}, progress=None)
        again = server._evaluate(
            spec, {"timeout": 1e-9, "executor": "serial"}, progress=None
        )
        assert again.from_cache
        assert again.values.tobytes() == warm.values.tobytes()
