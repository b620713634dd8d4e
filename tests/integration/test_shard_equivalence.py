"""Integration: sharded, gathered, pooled and resumed grids are bitwise
equal to one unsharded in-process run.

``GRID`` is the relay-placement campaign the shard artifacts have always
been keyed by (``tests/test_cli.py`` pins its spec hash): 5 protocols x
2 powers x 4 relay placements x 25 fading draws = 1000 cells. Three
shards of it and of ``operational-fading-fer`` (cells-fused link kernel,
adaptive budgets) are evaluated into one shared cache, as separate shard
jobs would, and then gathered.
"""

import contextlib
import io
import re

import numpy as np
import pytest

from repro.cli import main

GRID = (
    "scenarios run grid --param protocols=all --param powers-db=0,10"
    " --param placements=4 --param draws=25 --param seed=3"
)
OPERATIONAL = "scenarios run operational-fading-fer"


def run_cli(command: str) -> None:
    assert main(command.split()) == 0


def dumped(command: str, path) -> np.ndarray:
    """Run one CLI command with ``--dump path``; load the grid it wrote."""
    run_cli(f"{command} --dump {path}")
    return np.load(path)


def gather(command: str) -> str:
    return command.replace("scenarios run", "scenarios gather", 1)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.size > 0
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def shard_run(tmp_path_factory) -> tuple[str, str]:
    """Shards 1/3, 2/3 and 3/3 of both grids in one cache directory, then
    a rerun of grid shard 2/3 before anything is gathered. Returns the
    cache directory and the rerun's stdout."""
    cache = tmp_path_factory.mktemp("shard-cache")
    for shard in ("1/3", "2/3", "3/3"):
        flags = f"--shard {shard} --cache-dir {cache} --quiet"
        run_cli(f"{GRID} {flags}")
        run_cli(f"{OPERATIONAL} {flags} --chunk-size 8")
    rerun = io.StringIO()
    with contextlib.redirect_stdout(rerun):
        run_cli(f"{GRID} --shard 2/3 --cache-dir {cache} --quiet")
    return str(cache), rerun.getvalue()


@pytest.fixture(scope="module")
def grid_reference(tmp_path_factory) -> np.ndarray:
    path = tmp_path_factory.mktemp("reference") / "reference.npy"
    return dumped(f"{GRID} --no-cache --quiet", path)


class TestShardGather:
    def test_gathered_grid_equals_unsharded(self, shard_run, grid_reference, tmp_path):
        shard_cache, _ = shard_run
        gathered = dumped(
            f"{gather(GRID)} --cache-dir {shard_cache}", tmp_path / "gathered.npy"
        )
        assert_bitwise(gathered, grid_reference)

    def test_gathered_operational_grid_equals_unsharded(self, shard_run, tmp_path):
        shard_cache, _ = shard_run
        gathered = dumped(
            f"{gather(OPERATIONAL)} --cache-dir {shard_cache}",
            tmp_path / "gathered.npy",
        )
        reference = dumped(
            f"{OPERATIONAL} --no-cache --quiet", tmp_path / "reference.npy"
        )
        assert_bitwise(gathered, reference)

    def test_rerun_shard_is_served_from_chunk_entries(self, shard_run):
        _, out = shard_run
        assert re.search(r"shard 2/3: .* via cache", out)
        assert re.search(r"\b[1-9][0-9]* from cache, 0 computed", out)


class TestPoolEquivalence:
    def test_process_pool_with_cache_equals_serial_and_reference(
        self, grid_reference, tmp_path
    ):
        """Chunk futures, per-chunk checkpoints and the pool's reassembly
        against the in-process run and the serial batch-of-one oracle."""
        pool = "--executor process --processes 2 --chunk-size 64 --quiet"
        pooled = dumped(
            f"{GRID} {pool} --cache-dir {tmp_path / 'cache'}", tmp_path / "pool.npy"
        )
        serial = dumped(
            f"{GRID} --executor serial --no-cache --quiet", tmp_path / "serial.npy"
        )
        assert_bitwise(pooled, grid_reference)
        assert_bitwise(pooled, serial)
