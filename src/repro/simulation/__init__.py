"""Operational link-level simulation of the decode-and-forward protocols."""

from .asymmetric import AsymmetricRoundResult, run_mabc_asymmetric_round
from .adaptive import AdaptiveReport, adaptive_sum_rate, selection_frequencies
from .bits import (
    as_bits,
    bit_error_rate,
    bits_to_int,
    hamming_distance,
    int_to_bits,
    pad_bits,
    random_bits,
    xor_bits,
)
from .convolutional import NASA_CODE, TEST_CODE, ConvolutionalCode
from .crc import CRC8, CRC16_CCITT, CRC32, CrcCode
from .engine import (
    BatchedProtocolEngine,
    ProtocolEngine,
    RoundBatch,
    RoundResult,
)
from .interleaver import BlockInterleaver, RandomInterleaver
from .linkcodec import DecodedFrame, LinkCodec, default_codec
from .metrics import LinkCounter, ThroughputReport, WeightedFerCounter, wilson_interval
from .modulation import Bpsk, Qpsk, hard_decisions
from .montecarlo import (
    AdaptiveAccounting,
    FadingStatistics,
    SimulationReport,
    collect_adaptive_accounting,
    fading_sum_rate_statistics,
    fused_link_values,
    outage_probability,
    simulate_protocol,
    simulate_protocol_cells,
    wave_bounds,
)
from .outage_capacity import (
    OutageCurve,
    compute_outage_curve,
    outage_sum_rate,
    sample_outage_curve,
)
from .random_coding import (
    MabcRandomCodingReport,
    RandomBinaryCodebook,
    mabc_rate_pair_feasible,
    simulate_mabc_random_coding,
)
from .relay import MacDecodingResult, decode_frame, sic_decode_mac, xor_forward
from .sampling import ImportanceSamplingSpec, NoiseTwist
from .terminals import DecodePath, PartnerEstimate, arbitrate_paths, resolve_via_relay

__all__ = [
    "AsymmetricRoundResult",
    "run_mabc_asymmetric_round",
    "AdaptiveReport",
    "adaptive_sum_rate",
    "selection_frequencies",
    "as_bits",
    "bit_error_rate",
    "bits_to_int",
    "hamming_distance",
    "int_to_bits",
    "pad_bits",
    "random_bits",
    "xor_bits",
    "NASA_CODE",
    "TEST_CODE",
    "ConvolutionalCode",
    "CRC8",
    "CRC16_CCITT",
    "CRC32",
    "CrcCode",
    "ProtocolEngine",
    "BatchedProtocolEngine",
    "RoundBatch",
    "RoundResult",
    "BlockInterleaver",
    "RandomInterleaver",
    "DecodedFrame",
    "LinkCodec",
    "default_codec",
    "LinkCounter",
    "ThroughputReport",
    "WeightedFerCounter",
    "wilson_interval",
    "Bpsk",
    "Qpsk",
    "hard_decisions",
    "AdaptiveAccounting",
    "FadingStatistics",
    "SimulationReport",
    "collect_adaptive_accounting",
    "fading_sum_rate_statistics",
    "fused_link_values",
    "outage_probability",
    "simulate_protocol",
    "simulate_protocol_cells",
    "wave_bounds",
    "OutageCurve",
    "compute_outage_curve",
    "sample_outage_curve",
    "outage_sum_rate",
    "MabcRandomCodingReport",
    "RandomBinaryCodebook",
    "mabc_rate_pair_feasible",
    "simulate_mabc_random_coding",
    "MacDecodingResult",
    "decode_frame",
    "sic_decode_mac",
    "xor_forward",
    "DecodePath",
    "PartnerEstimate",
    "arbitrate_paths",
    "resolve_via_relay",
    "ImportanceSamplingSpec",
    "NoiseTwist",
]
