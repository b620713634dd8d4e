"""Protocol-run batching of operational grids.

``_grid_batches`` hands an operational (link) spec to the executors as
one batch per maximal run of blocks sharing a protocol, so the fused link
kernel decodes every power and extra-axis value of that protocol in one
pipeline per wave; analytic specs follow the same rule. The grouping
is a pure execution layout: every cell keeps its own ``(seed, flat
index)`` streams, so the values are bitwise-identical however the grid
is batched, sliced or chunked.
"""

import dataclasses

import numpy as np
import pytest

from repro.campaign.engine import _grid_batches, run_campaign
from repro.campaign.spec import CampaignSpec, FadingSpec, GridAxis, LinkSimSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol


def link_spec():
    """2 protocols x 3 powers x 2 gain offsets blocks of 3 fading draws."""
    return CampaignSpec(
        protocols=(Protocol.DT, Protocol.TDBC),
        powers_db=(0.0, 4.0, 8.0),
        gains=(LinkGains.from_db(-4.0, 0.0, 3.0),),
        fading=FadingSpec(n_draws=3, seed=31),
        extra_axes=(
            GridAxis(
                name="offsets",
                values=(
                    {"gain_offsets_db": (0.0, 0.0, 0.0)},
                    {"gain_offsets_db": (-3.0, 1.0, -2.0)},
                ),
            ),
        ),
        link=LinkSimSpec(
            n_rounds=4,
            payload_bits=24,
            seed=9,
            code="test",
            crc="crc8",
            metric="fer",
            target_rel_error=0.5,
            max_rounds=16,
        ),
    )


@pytest.fixture(scope="module")
def spec():
    return link_spec()


@pytest.fixture(scope="module")
def grouped(spec):
    return run_campaign(spec, executor="vectorized")


class TestGrouping:
    def test_link_spec_gives_one_batch_per_protocol_run(self, spec):
        flat_gains = spec.sample_gain_draws().reshape(-1, 3)
        batches = _grid_batches(spec, flat_gains, 0, spec.n_units)
        per_protocol = spec.n_units // len(spec.protocols)
        assert [b.protocol for b in batches] == list(spec.protocols)
        assert [len(b) for b in batches] == [per_protocol] * len(spec.protocols)
        indices = np.concatenate([b.indices for b in batches])
        assert np.array_equal(indices, np.arange(spec.n_units))

    def test_merged_units_keep_their_block_power_and_gains(self, spec):
        flat_gains = spec.sample_gain_draws().reshape(-1, 3)
        batches = _grid_batches(spec, flat_gains, 0, spec.n_units)
        for batch in batches:
            for i, flat in enumerate(batch.indices):
                block, channel = divmod(int(flat), spec.n_channels)
                protocol, power, gain_scale = spec.block_params(block)
                assert batch.protocol == protocol
                assert batch.power[i] == power
                assert batch.gab[i] == flat_gains[channel, 0] * gain_scale[0]
                assert batch.gbr[i] == flat_gains[channel, 2] * gain_scale[2]

    def test_partial_range_splits_only_at_the_protocol_boundary(self, spec):
        flat_gains = spec.sample_gain_draws().reshape(-1, 3)
        boundary = spec.n_units // len(spec.protocols)
        start, stop = 4, boundary + 7
        batches = _grid_batches(spec, flat_gains, start, stop)
        assert [b.protocol for b in batches] == [Protocol.DT, Protocol.TDBC]
        assert np.array_equal(batches[0].indices, np.arange(start, boundary))
        assert np.array_equal(batches[1].indices, np.arange(boundary, stop))

    def test_analytic_spec_gets_one_batch_per_protocol_run(self, spec):
        analytic = dataclasses.replace(spec, link=None)
        flat_gains = analytic.sample_gain_draws().reshape(-1, 3)
        batches = _grid_batches(analytic, flat_gains, 0, analytic.n_units)
        per_protocol = analytic.n_units // len(analytic.protocols)
        assert [b.protocol for b in batches] == list(analytic.protocols)
        assert [len(b) for b in batches] == [per_protocol] * len(analytic.protocols)
        assert all(b.indices is None for b in batches)
        powers = np.concatenate([b.power for b in batches])
        blocks = np.arange(analytic.n_units) // analytic.n_channels
        expected = [analytic.block_params(int(block))[1] for block in blocks]
        assert np.array_equal(powers, expected)


class TestBitwiseAcrossLayouts:
    def test_grid_mixes_outcomes(self, grouped):
        """Not vacuous: the grid holds both failing and clean cells."""
        values = grouped.values.ravel()
        assert np.all(np.isfinite(values))
        assert np.any(values > 0.0) and np.any(values == 0.0)

    def test_one_cell_batches_match(self, spec, grouped):
        narrow = run_campaign(spec, executor="vectorized", chunk_size=1)
        assert narrow.values.tobytes() == grouped.values.tobytes()

    def test_serial_matches(self, spec, grouped):
        serial = run_campaign(spec, executor="serial")
        assert serial.values.tobytes() == grouped.values.tobytes()

    def test_cached_chunks_splitting_blocks_match(self, spec, grouped, tmp_path):
        chunk_size = spec.n_channels + 2
        assert chunk_size % spec.n_channels, "chunks must end inside blocks"
        cached = run_campaign(
            spec, executor="vectorized", cache=tmp_path, chunk_size=chunk_size
        )
        assert cached.cells_computed == spec.n_units
        assert cached.values.tobytes() == grouped.values.tobytes()
