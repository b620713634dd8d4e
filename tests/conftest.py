"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.channels.gains import LinkGains
from repro.core.gaussian import GaussianChannel
from repro.information.functions import db_to_linear
from repro.serve import CampaignServer, ServeClient, ServeConfig, ServeError


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def paper_gains() -> LinkGains:
    """The Fig. 4 gain triple: G_ab = -7 dB, G_ar = 0 dB, G_br = 5 dB."""
    return LinkGains.from_db(-7.0, 0.0, 5.0)


@pytest.fixture
def channel_low(paper_gains) -> GaussianChannel:
    """Fig. 4 top panel: P = 0 dB."""
    return GaussianChannel(gains=paper_gains, power=db_to_linear(0.0))


@pytest.fixture
def channel_high(paper_gains) -> GaussianChannel:
    """Fig. 4 bottom panel: P = 10 dB."""
    return GaussianChannel(gains=paper_gains, power=db_to_linear(10.0))


@pytest.fixture()
def start_server(tmp_path):
    """Factory fixture: boot a (possibly fault-armed) daemon in a thread,
    shut it down after the test."""
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


def random_link_gains(rng: np.random.Generator, *, low_db: float = -10.0,
                      high_db: float = 15.0) -> LinkGains:
    """Random reciprocal gains for property tests (shared helper)."""
    values = rng.uniform(low_db, high_db, size=3)
    return LinkGains.from_db(float(values[0]), float(values[1]), float(values[2]))
