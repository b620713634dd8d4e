"""Integration: the serve daemon end to end.

Served grids are byte-equal to local ``evaluate``, concurrent identical
requests share one computation, the ``repro client`` commands drive a
live daemon, and a second daemon process on the same cache directory
answers from the first daemon's entries.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.api import evaluate
from repro.cli import main
from repro.serve import ServeClient, ServeError

SRC = Path(__file__).resolve().parents[2] / "src"


def wait_for(predicate, timeout=30):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.05)


class TestConcurrentRequests:
    def test_identical_and_distinct_requests(self, start_server):
        """Four identical and two distinct requests at once: every grid is
        bitwise-equal to a local run, and each of the three distinct specs
        is computed exactly once."""
        server, client = start_server()
        names = ["fig4-operating-points"] * 4 + ["fig3-symmetric", "fig3-placement"]
        results = [None] * len(names)

        def ask(index, name):
            worker = ServeClient(server.config.socket_path, timeout=300)
            results[index] = worker.evaluate(name)

        threads = [threading.Thread(target=ask, args=job) for job in enumerate(names)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "request did not finish"

        local = {name: evaluate(name).values.tobytes() for name in set(names)}
        for name, served in zip(names, results):
            assert served.values.tobytes() == local[name], name
        # The identical requests joined the running job or hit the cache.
        assert client.stats()["stats"]["computed"] == 3
        served_from = [served.served_from for served in results]
        assert served_from.count("computed") == 3
        assert set(served_from) <= {"computed", "joined", "cache"}


class TestClientCommand:
    def test_ping_run_stats_and_shutdown(self, start_server, capsys):
        server, client = start_server()
        socket_path = server.config.socket_path
        client.evaluate("fig4-operating-points")
        capsys.readouterr()

        def client_cli(*argv) -> str:
            assert main(["client", "--socket", socket_path, *argv]) == 0
            return capsys.readouterr().out

        assert "pong: protocol v2" in client_cli("ping")
        served = client_cli("run", "fig4-operating-points", "--quiet")
        assert "served from cache" in served
        assert "status: ok" in client_cli("stats")
        assert "server is draining" in client_cli("shutdown")
        wait_for(lambda: not os.path.exists(socket_path))


def answers(daemon, client) -> bool:
    assert daemon.poll() is None, "the daemon process exited"
    try:
        client.ping()
    except ServeError:
        return False
    return True


class TestDaemonRestart:
    def test_second_daemon_process_serves_the_first_daemons_entries(
        self, start_server, tmp_path
    ):
        server, client = start_server()
        assert client.evaluate("fig4-operating-points").served_from == "computed"
        client.shutdown()
        wait_for(lambda: not os.path.exists(server.config.socket_path))

        socket_path = str(tmp_path / "second.sock")
        serve = ["serve", "--socket", socket_path, "--cache-dir", server.config.cache]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", *serve, "--processes", "2"],
            env={**os.environ, "PYTHONPATH": path},
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            second = ServeClient(socket_path, timeout=60)
            wait_for(lambda: answers(daemon, second))
            served = second.evaluate("fig4-operating-points")
            assert served.served_from == "cache"
            local = evaluate("fig4-operating-points")
            assert served.values.tobytes() == local.values.tobytes()
            second.shutdown()
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                # Its own session: the kill reaches the pool workers too.
                os.killpg(daemon.pid, signal.SIGKILL)
                daemon.wait()
        assert not os.path.exists(socket_path)
