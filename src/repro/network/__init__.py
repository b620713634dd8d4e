"""Network model substrate: nodes, messages, cuts, Lemma-1 engine."""

from .cuts import cuts_with_crossing_rate, enumerate_cuts
from .cutset import (
    CutConstraint,
    GaussianMIOracle,
    MutualInformationOracle,
    PhaseSpec,
    ProtocolSchedule,
    cutset_outer_bound,
)
from .model import Message, NetworkModel, bidirectional_relay_network

__all__ = [
    "cuts_with_crossing_rate",
    "enumerate_cuts",
    "CutConstraint",
    "GaussianMIOracle",
    "MutualInformationOracle",
    "PhaseSpec",
    "ProtocolSchedule",
    "cutset_outer_bound",
    "Message",
    "NetworkModel",
    "bidirectional_relay_network",
]
