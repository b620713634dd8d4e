"""Channel models (substrate).

* :class:`LinkGains` — reciprocal power gains of the three links.
* :mod:`repro.channels.pathloss` — geometry and path-loss laws for the
  cellular relay-placement scenario.
* :mod:`repro.channels.fading` — quasi-static Rayleigh/Rician ensembles.
* :mod:`repro.channels.awgn` — complex AWGN primitives.
* :class:`HalfDuplexMedium` — the Section II half-duplex shared medium with
  the ``∅`` no-input/no-output symbol semantics.
* :mod:`repro.channels.dmc` — discrete memoryless channels.
"""

from .binary_relay import BinaryRelayChannel, BinaryRelayOracle
from .awgn import ComplexAwgn, apply_link, apply_mac, measure_snr
from .dmc import (
    DiscreteMemorylessChannel,
    binary_erasure_channel,
    binary_symmetric_channel,
    z_channel,
)
from .fading import RayleighFading, RicianFading, sample_gain_ensemble
from .gains import LinkGains
from .halfduplex import (
    FusedHalfDuplexMedium,
    FusedPhaseStream,
    HalfDuplexMedium,
    PhaseRows,
    link_amplitudes,
)
from .power import NODE_ORDER, NodePowers, node_power
from .pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    Position,
    RelayGeometry,
    linear_relay_gains,
)

__all__ = [
    "BinaryRelayChannel",
    "BinaryRelayOracle",
    "ComplexAwgn",
    "apply_link",
    "apply_mac",
    "measure_snr",
    "DiscreteMemorylessChannel",
    "binary_erasure_channel",
    "binary_symmetric_channel",
    "z_channel",
    "RayleighFading",
    "RicianFading",
    "sample_gain_ensemble",
    "LinkGains",
    "HalfDuplexMedium",
    "FusedHalfDuplexMedium",
    "FusedPhaseStream",
    "PhaseRows",
    "link_amplitudes",
    "NODE_ORDER",
    "NodePowers",
    "node_power",
    "FreeSpacePathLoss",
    "LogDistancePathLoss",
    "Position",
    "RelayGeometry",
    "linear_relay_gains",
]
