"""The ``serve-mix`` workload: a ``repro serve`` daemon under a seeded mix.

The daemon runs in its own process in production configuration: the
``async`` pool with ``nproc`` workers and a fresh cache directory inside
the checkout. Two client connections drive it in a closed loop. The loop
advances in lockstep *steps*; at each step both clients send one request
and wait for the reply, and the next step starts when both have one.
Step kinds repeat in :data:`PATTERN`:

* ``cold`` — each client asks for its own new analytic ensemble, which
  the daemon computes;
* ``join`` — both clients ask for the same new ensemble at once, so the
  daemon computes it once and the second request joins the job;
* ``hot`` — each client repeats a request that already completed, which
  the daemon answers from its cache.

Which ensembles are cold and which completed one a hot step repeats are
drawn from the seed, so the request sequence is the same on every run.
After the loop every served grid is compared bitwise against a local
in-process evaluation of the same scenario.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from calibration import calibrate
from workloads import analytic_scenario, request_seeds

#: Step kinds of one cycle: 2 cold + 2 joined + 16 hot requests.
PATTERN = ("cold",) + ("hot",) * 4 + ("join",) + ("hot",) * 4

#: Fading draws of one served ensemble (5 protocols x 4 powers x 40 draws).
SERVE_DRAWS = 40

#: Client connections, i.e. concurrent closed-loop callers.
CLIENTS = 2

#: Seconds to wait for a daemon to answer its first ping.
START_TIMEOUT_S = 60.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """One ``repro serve`` process with its own socket and cache directory."""

    def __init__(self, root: Path, work: Path, tag: str) -> None:
        from repro.serve.client import ServeClient

        self.root = root
        self.cache_dir = work / f"cache-{tag}"
        # Relative to the checkout root, which is both processes' working
        # directory: keeps the path under the AF_UNIX length limit.
        self.socket_path = os.path.relpath(work / f"{tag}.sock", root)
        self.workers = nproc()
        self.client = ServeClient(self.socket_path, timeout=120.0)
        self.process = None

    def start(self) -> float:
        """Start the daemon; seconds until it answered a warm-up request."""
        from repro.serve.client import ServeError

        started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                self.socket_path,
                "--cache-dir",
                str(self.cache_dir),
                "--executor",
                "async",
                "--processes",
                str(self.workers),
            ],
            cwd=self.root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = started + START_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.process.returncode}")
            try:
                self.client.ping()
                break
            except ServeError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not answer within the start timeout")
                time.sleep(0.01)
        # A tiny evaluation forks the pool workers, so timed requests never
        # pay that one-time cost.
        self.client.evaluate(analytic_scenario(0, n_draws=2))
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Shut the daemon down, wait for it, and remove its files."""
        if self.process is not None and self.process.poll() is None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=60)
            except Exception:  # noqa: BLE001 - never leave a daemon behind
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(timeout=60)
        if self.process is not None:
            # Pool workers share the daemon's session; reap any straggler.
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        socket_file = self.root / self.socket_path
        if socket_file.exists():
            socket_file.unlink()


class MixLoad:
    """The lockstep two-client request loop against one daemon."""

    def __init__(
        self, daemon: Daemon, seed: int, tracer=None, calibrating: bool = False
    ) -> None:
        self.daemon = daemon
        self.seed = int(seed)
        self.tracer = tracer
        self.calibrating = calibrating
        self.completed: list = []  # scenarios whose results are cached
        self.records: list = []
        self.cycle_seconds: list = []  # duration of each complete cycle
        self.calibration: list = []  # kernel times, one before each cycle
        self.scenarios: dict = {}  # spec hash -> scenario, for the checks
        self._step_scenarios = [None] * CLIENTS
        self._lock = threading.Lock()

    def _scenario(self, cycle: int, step: int, client: int):
        kind = PATTERN[step]
        if kind == "cold":
            (fading_seed,) = request_seeds(self.seed, "serve-mix", 4 * cycle + client, 1)
            return kind, analytic_scenario(fading_seed, n_draws=SERVE_DRAWS)
        if kind == "join":
            (fading_seed,) = request_seeds(self.seed, "serve-mix", 4 * cycle + 2, 1)
            return kind, analytic_scenario(fading_seed, n_draws=SERVE_DRAWS)
        pick = np.random.default_rng([self.seed, 4, cycle, step, client])
        return kind, self.completed[int(pick.integers(len(self.completed)))]

    def _request(self, request_id: str, kind: str, scenario) -> dict:
        from repro.serve.client import ServeError

        record = {"id": request_id, "kind": kind}
        started = time.perf_counter()
        try:
            if self.tracer is None:
                served = self.daemon.client.evaluate(scenario)
            else:
                with self.tracer.span("request", request=request_id):
                    served = self.daemon.client.evaluate(scenario)
        except ServeError as error:
            record.update(rtt_s=time.perf_counter() - started, error=error.code)
            return record
        record.update(
            rtt_s=time.perf_counter() - started,
            served_from=served.served_from,
            server_s=served.elapsed_seconds,
            spec_hash=served.spec_hash,
            cells=int(served.values.size),
            digest=_digest(served.values),
        )
        return record

    def run(self, *, seconds: float | None = None, cycles: int | None = None) -> float:
        """Drive the mix for ``seconds`` or for whole ``cycles``; wall seconds."""
        state = {"cycle": 0, "step": -1, "stop": False, "started": None, "opened": None}

        def advance() -> None:
            # Runs in one thread while the other waits at the barrier, so it
            # sees both clients' previous step complete.
            for scenario in self._step_scenarios:
                if scenario is not None and scenario not in self.completed:
                    self.completed.append(scenario)
            self._step_scenarios[:] = [None] * CLIENTS
            now = time.perf_counter()
            if state["started"] is None:
                state["started"] = now
            state["step"] += 1
            if state["step"] == len(PATTERN):
                state["step"] = 0
                state["cycle"] += 1
            if seconds is not None:
                state["stop"] = now - state["started"] >= seconds
            else:
                state["stop"] = state["cycle"] >= cycles
            if state["step"] == 0:
                if state["opened"] is not None:
                    self.cycle_seconds.append(now - state["opened"])
                if self.calibrating and not state["stop"]:
                    # Both clients wait and the daemon is idle: the kernel
                    # runs alone, outside every cycle's timing.
                    self.calibration.append(calibrate())
                state["opened"] = time.perf_counter()

        barrier = threading.Barrier(CLIENTS, action=advance)
        errors = []

        def client_loop(client: int) -> None:
            try:
                while True:
                    barrier.wait()
                    if state["stop"]:
                        return
                    cycle, step = state["cycle"], state["step"]
                    kind, scenario = self._scenario(cycle, step, client)
                    record = self._request(f"c{cycle}s{step}k{client}", kind, scenario)
                    record["cycle"] = cycle
                    if "error" not in record:
                        self._step_scenarios[client] = scenario
                        with self._lock:
                            self.scenarios[record["spec_hash"]] = scenario
                    with self._lock:
                        self.records.append(record)
            except threading.BrokenBarrierError:
                return
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
                barrier.abort()

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        if errors:
            raise errors[0]
        return ended - state["started"]

    def cycle_rates(self) -> list:
        """``(cells/s, requests/s)`` served in each complete cycle."""
        rates = []
        for cycle, seconds in enumerate(self.cycle_seconds):
            served = [r for r in self.records if r["cycle"] == cycle and "error" not in r]
            rates.append((sum(r["cells"] for r in served) / seconds, len(served) / seconds))
        return rates

    def check(self) -> tuple:
        """``(grids checked, mismatches)``: served grids vs local evaluate."""
        from repro.api import evaluate

        local = {
            spec_hash: _digest(evaluate(scenario).campaign.values)
            for spec_hash, scenario in self.scenarios.items()
        }
        mismatches = [
            f"{r['id']}: served grid differs from local evaluate"
            for r in self.records
            if "error" not in r and r["digest"] != local[r["spec_hash"]]
        ]
        return len(local), mismatches
