"""The (cells × rounds)-fused campaign kernel and adaptive round allocation.

Acceptance criteria of the fused-cells PR live here:

* fused per-cell reports are bitwise-identical to the per-round
  ``method="reference"`` loop across all five protocols and both
  convolutional codes;
* fused reports are invariant to the fusion width (how many cells share
  one kernel call), the wave/row-cap execution splits and the campaign
  chunk size;
* adaptive round allocation (``target_rel_error`` / ``max_rounds``) is a
  deterministic, spec-derived wave schedule: budgets stop at the first
  boundary where the FER precision target is met, never exceed the cap,
  and never depend on how the cells were fused.
"""

from collections import Counter

import numpy as np
import pytest

from repro.campaign.spec import LinkSimSpec
from repro.channels.gains import LinkGains
from repro.channels.halfduplex import (
    FusedHalfDuplexMedium,
    FusedPhaseStream,
    HalfDuplexMedium,
)
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.simulation import engine as link_engine
from repro.simulation.convolutional import NASA_CODE, TEST_CODE
from repro.simulation.crc import CRC8, CRC16_CCITT
from repro.simulation.engine import BatchedProtocolEngine
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.modulation import Qpsk
from repro.simulation.montecarlo import (
    simulate_protocol,
    simulate_protocol_cells,
    wave_bounds,
)
from repro.simulation.terminals import DecodePath

ALL_PROTOCOLS = (
    Protocol.DT,
    Protocol.NAIVE4,
    Protocol.MABC,
    Protocol.TDBC,
    Protocol.HBC,
)

#: Three cells spanning weak and strong channels, including one whose
#: SIC ordering differs from the others (gar > gbr), so the fused
#: per-row ordering decision is actually exercised.
CELL_GAINS = (
    LinkGains.from_db(-7.0, 0.0, 5.0),
    LinkGains.from_db(-3.0, 4.0, 1.0),
    LinkGains.from_db(0.0, 2.0, 2.0),
)
CELL_POWERS = (10**1.2, 10**0.4, 10**0.8)
SEED = 17

#: Two cells whose direct link is 2-3 dB stronger than both relay links
#: (the paper's geometry has it 7-12 dB weaker), so TDBC and HBC
#: terminals often fall back on the overheard direct frame.
DIRECT_CELL_GAINS = (
    LinkGains.from_db(-2.0, -4.0, -4.0),
    LinkGains.from_db(0.0, -2.0, -3.0),
)


def small_codec(code=TEST_CODE, crc=CRC8, modulation=None, payload_bits=24):
    kwargs = {"payload_bits": payload_bits, "code": code, "crc": crc}
    if modulation is not None:
        kwargs["modulation"] = modulation
    return LinkCodec(**kwargs)


def cell_rngs(n=len(CELL_GAINS)):
    return [np.random.default_rng([SEED, i]) for i in range(n)]


def run_fused(protocol, codec, n_rounds=6, **kwargs):
    return simulate_protocol_cells(
        protocol, CELL_GAINS, CELL_POWERS, n_rounds, cell_rngs(), codec=codec, **kwargs
    )


class TestFusedEquivalence:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize(
        "code,crc,payload_bits",
        [(TEST_CODE, CRC8, 24), (NASA_CODE, CRC16_CCITT, 16)],
        ids=["test-code", "nasa-code"],
    )
    def test_fused_equals_per_cell_reference(self, protocol, code, crc, payload_bits):
        codec = small_codec(code=code, crc=crc, payload_bits=payload_bits)
        fused = run_fused(protocol, codec)
        for i, report in enumerate(fused):
            reference = simulate_protocol(
                protocol,
                CELL_GAINS[i],
                CELL_POWERS[i],
                6,
                np.random.default_rng([SEED, i]),
                codec=codec,
                method="reference",
            )
            assert report == reference

    def test_fused_equals_per_cell_with_qpsk(self):
        codec = small_codec(modulation=Qpsk())
        fused = run_fused(Protocol.MABC, codec)
        for i, report in enumerate(fused):
            assert report == simulate_protocol(
                Protocol.MABC,
                CELL_GAINS[i],
                CELL_POWERS[i],
                6,
                np.random.default_rng([SEED, i]),
                codec=codec,
                method="reference",
            )

    @pytest.mark.parametrize("protocol", [Protocol.TDBC, Protocol.HBC])
    @pytest.mark.parametrize(
        "code,crc,payload_bits",
        [(TEST_CODE, CRC8, 24), (NASA_CODE, CRC16_CCITT, 16)],
        ids=["test-code", "nasa-code"],
    )
    def test_fused_equals_reference_when_direct_link_is_strong(
        self, protocol, code, crc, payload_bits, monkeypatch
    ):
        # Count the reference engine's arbitration outcomes, so the test
        # proves every branch of the deferred direct decode is reached.
        paths = Counter()
        scalar = link_engine.arbitrate_paths

        def counting(codec, **kwargs):
            estimate = scalar(codec, **kwargs)
            if kwargs["direct_frame"] is not None:
                paths[estimate.path] += 1
            return estimate

        monkeypatch.setattr(link_engine, "arbitrate_paths", counting)
        codec = small_codec(code=code, crc=crc, payload_bits=payload_bits)
        n_cells = len(DIRECT_CELL_GAINS)
        fused = simulate_protocol_cells(
            protocol,
            DIRECT_CELL_GAINS,
            (1.0,) * n_cells,
            16,
            cell_rngs(n_cells),
            codec=codec,
        )
        for i, report in enumerate(fused):
            assert report == simulate_protocol(
                protocol,
                DIRECT_CELL_GAINS[i],
                1.0,
                16,
                np.random.default_rng([SEED, i]),
                codec=codec,
                method="reference",
            )
        assert paths[DecodePath.DIRECT] > paths[DecodePath.RELAY] > 0
        assert paths[DecodePath.FAILED] > 0

    @pytest.mark.parametrize("row_cap", [1, 2, 5, 7, 10_000])
    def test_fused_invariant_to_row_cap(self, row_cap):
        codec = small_codec()
        baseline = run_fused(Protocol.TDBC, codec)
        assert run_fused(Protocol.TDBC, codec, row_cap=row_cap) == baseline

    def test_row_cap_bounds_every_engine_call(self, monkeypatch):
        from repro.simulation import montecarlo

        codec = small_codec()
        rows_seen = []
        original = montecarlo.BatchedProtocolEngine.for_cells.__func__

        def recording(cls, codec, gab, gar, gbr, power, rounds_per_cell, **kwargs):
            rows_seen.append(len(np.atleast_1d(gab)) * rounds_per_cell)
            return original(cls, codec, gab, gar, gbr, power, rounds_per_cell, **kwargs)

        monkeypatch.setattr(
            montecarlo.BatchedProtocolEngine, "for_cells", classmethod(recording)
        )
        # A cap below the cell count must split the cells axis too, never
        # exceed `cap` rows per call.
        baseline = run_fused(Protocol.DT, codec)
        for cap in (1, 2):
            rows_seen.clear()
            assert run_fused(Protocol.DT, codec, row_cap=cap) == baseline
            assert rows_seen and max(rows_seen) <= cap

    def test_fused_invariant_to_fusion_width(self):
        codec = small_codec()
        together = run_fused(Protocol.HBC, codec)
        singly = [
            simulate_protocol_cells(
                Protocol.HBC,
                CELL_GAINS[i : i + 1],
                CELL_POWERS[i : i + 1],
                6,
                [np.random.default_rng([SEED, i])],
                codec=codec,
            )[0]
            for i in range(len(CELL_GAINS))
        ]
        assert together == singly

    def test_fer_property_counts_both_directions(self):
        codec = small_codec()
        report = run_fused(Protocol.DT, codec)[0]
        frames = report.a_to_b.frames + report.b_to_a.frames
        errors = report.a_to_b.frame_errors + report.b_to_a.frame_errors
        assert frames == 2 * report.n_rounds
        assert report.fer == errors / frames


class TestWaveBounds:
    def test_fixed_budget_is_one_wave(self):
        assert wave_bounds(12) == (12,)

    def test_escalation_doubles_to_the_cap(self):
        assert wave_bounds(8, target_rel_error=0.3, max_rounds=100) == (
            8,
            16,
            32,
            64,
            100,
        )

    def test_cap_equal_to_initial_wave_is_one_wave(self):
        assert wave_bounds(8, target_rel_error=0.3, max_rounds=8) == (8,)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            wave_bounds(0)
        with pytest.raises(InvalidParameterError):
            wave_bounds(8, target_rel_error=0.3)
        with pytest.raises(InvalidParameterError):
            wave_bounds(8, max_rounds=16)
        with pytest.raises(InvalidParameterError):
            wave_bounds(8, target_rel_error=-0.1, max_rounds=16)
        with pytest.raises(InvalidParameterError):
            wave_bounds(8, target_rel_error=0.3, max_rounds=4)

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(InvalidParameterError, match="finite"):
            wave_bounds(8, target_rel_error=target, max_rounds=64)
        with pytest.raises(InvalidParameterError, match="finite"):
            LinkSimSpec(
                n_rounds=8,
                payload_bits=24,
                seed=0,
                target_rel_error=target,
                max_rounds=64,
            )
        with pytest.raises(InvalidParameterError, match="finite"):
            simulate_protocol(
                Protocol.DT,
                LinkGains.from_db(-7.0, 0.0, 5.0),
                1.0,
                8,
                np.random.default_rng(0),
                codec=small_codec(),
                target_rel_error=target,
                max_rounds=64,
            )


class TestAdaptiveAllocation:
    def adaptive(self, powers, **kwargs):
        kwargs.setdefault("target_rel_error", 0.4)
        kwargs.setdefault("max_rounds", 64)
        return simulate_protocol_cells(
            Protocol.MABC,
            (CELL_GAINS[0],) * len(powers),
            powers,
            4,
            cell_rngs(len(powers)),
            codec=small_codec(),
            **kwargs,
        )

    def test_noisy_cells_stop_early_clean_cells_hit_the_cap(self):
        reports = self.adaptive((10**-0.5, 10**1.2))
        noisy, clean = reports
        assert noisy.fer > 0
        assert noisy.n_rounds < 64  # resolved before the cap
        assert clean.n_rounds == 64  # zero errors: runs to max_rounds
        assert clean.fer == 0.0

    def test_budgets_follow_the_wave_schedule(self):
        bounds = wave_bounds(4, target_rel_error=0.4, max_rounds=64)
        reports = self.adaptive((10**-0.5, 10**0.1, 10**1.2))
        for report in reports:
            assert report.n_rounds in bounds

    def test_adaptive_deterministic_and_fusion_invariant(self):
        powers = (10**-0.5, 10**0.1, 10**1.2)
        together = self.adaptive(powers)
        repeat = self.adaptive(powers)
        assert together == repeat
        for i, report in enumerate(together):
            single = simulate_protocol_cells(
                Protocol.MABC,
                (CELL_GAINS[0],),
                powers[i : i + 1],
                4,
                [np.random.default_rng([SEED, i])],
                codec=small_codec(),
                target_rel_error=0.4,
                max_rounds=64,
            )[0]
            assert report == single

    def test_adaptive_invariant_to_row_cap(self):
        powers = (10**-0.5, 10**0.1, 10**1.2)
        baseline = self.adaptive(powers)
        for row_cap in (1, 3, 11):
            assert self.adaptive(powers, row_cap=row_cap) == baseline

    def test_simulate_protocol_routes_adaptive_budgets(self):
        report = simulate_protocol(
            Protocol.MABC,
            CELL_GAINS[0],
            10**-0.5,
            4,
            np.random.default_rng([SEED, 0]),
            codec=small_codec(),
            target_rel_error=0.4,
            max_rounds=64,
        )
        expected = self.adaptive((10**-0.5,))[0]
        assert report == expected

    def test_adaptive_rejects_reference_method(self):
        with pytest.raises(InvalidParameterError):
            simulate_protocol(
                Protocol.MABC,
                CELL_GAINS[0],
                1.0,
                4,
                np.random.default_rng(0),
                codec=small_codec(),
                method="reference",
                target_rel_error=0.4,
                max_rounds=64,
            )


class TestValidation:
    def test_cell_and_rng_counts_must_agree(self):
        with pytest.raises(InvalidParameterError):
            simulate_protocol_cells(
                Protocol.DT, CELL_GAINS, CELL_POWERS, 4, cell_rngs(2),
                codec=small_codec(),
            )

    def test_at_least_one_cell(self):
        with pytest.raises(InvalidParameterError):
            simulate_protocol_cells(Protocol.DT, (), (), 4, [], codec=small_codec())

    def test_row_cap_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            run_fused(Protocol.DT, small_codec(), row_cap=0)

    def test_fused_phase_stream_validation(self):
        with pytest.raises(InvalidParameterError):
            FusedPhaseStream(streams=(), rounds_per_cell=1)
        with pytest.raises(InvalidParameterError):
            FusedPhaseStream(streams=(np.random.default_rng(0),), rounds_per_cell=0)

    def test_fused_medium_validation(self):
        with pytest.raises(InvalidParameterError):
            FusedHalfDuplexMedium(
                gab=[1.0, 2.0], gar=[1.0], gbr=[1.0, 2.0], rounds_per_cell=2
            )
        with pytest.raises(InvalidParameterError):
            FusedHalfDuplexMedium(gab=[1.0], gar=[1.0], gbr=[1.0], rounds_per_cell=0)
        with pytest.raises(InvalidParameterError):
            FusedHalfDuplexMedium(gab=[-1.0], gar=[1.0], gbr=[1.0], rounds_per_cell=1)

    def test_fused_engine_validation(self):
        medium = FusedHalfDuplexMedium(
            gab=[1.0, 2.0], gar=[1.0, 1.0], gbr=[1.0, 1.0], rounds_per_cell=2
        )
        codec = small_codec()
        with pytest.raises(InvalidParameterError):
            BatchedProtocolEngine(medium=medium, codec=codec, power=np.ones(4))
        with pytest.raises(InvalidParameterError):
            BatchedProtocolEngine(medium=medium, codec=codec, power=np.ones((3, 1)))
        with pytest.raises(InvalidParameterError):
            BatchedProtocolEngine(medium=medium, codec=codec, power=np.zeros((4, 1)))
        with pytest.raises(InvalidParameterError):
            BatchedProtocolEngine(
                medium=HalfDuplexMedium(gains=CELL_GAINS[0]),
                codec=codec,
                power=np.ones((4, 1)),
            )

    def test_fused_engine_for_cells_broadcasts_scalar_power(self):
        engine = BatchedProtocolEngine.for_cells(
            small_codec(), [1.0, 2.0], [1.0, 1.0], [1.0, 1.0], 4.0, 3
        )
        assert engine.power.shape == (6, 1)
        assert np.all(engine.power == 4.0)
        assert engine.medium.n_rows == 6
