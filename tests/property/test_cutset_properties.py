"""Property: the Lemma-1 engine reproduces the hand-coded theorem bounds.

The outer bounds of Theorems 2, 4 and 6 were transcribed by hand in
:mod:`repro.core.bounds`; the cut-set engine derives them mechanically from
the protocol schedules. On any channel the two must agree constraint by
constraint — this is the strongest internal-consistency check in the suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.gains import LinkGains
from repro.core.bounds import bound_for
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol, protocol_schedule
from repro.core.terms import BoundKind
from repro.network.cutset import GaussianMIOracle, cutset_outer_bound
from repro.network.model import bidirectional_relay_network

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_channel(seed: int) -> GaussianChannel:
    rng = np.random.default_rng(seed)
    gains = LinkGains.from_db(
        float(rng.uniform(-15, 10)),
        float(rng.uniform(-10, 15)),
        float(rng.uniform(-10, 15)),
    )
    return GaussianChannel(gains=gains, power=10 ** float(rng.uniform(-1, 2)))


def normalized_constraints_from_engine(channel, protocol):
    network = bidirectional_relay_network()
    oracle = GaussianMIOracle(gains=channel.gains, power=channel.power)
    constraints = cutset_outer_bound(network, protocol_schedule(protocol), oracle)
    return sorted(
        (tuple(sorted(c.message_names)), tuple(np.round(c.phase_mi, 9)))
        for c in constraints
    )


def normalized_constraints_from_theorem(channel, protocol):
    evaluated = channel.evaluate(bound_for(protocol, BoundKind.OUTER))
    return sorted(
        (tuple(sorted(c.rates)), tuple(np.round(c.coefficients, 9)))
        for c in evaluated.constraints
    )


class TestEngineMatchesTheorems:
    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_mabc_theorem2_converse(self, seed):
        channel = random_channel(seed)
        engine = normalized_constraints_from_engine(channel, Protocol.MABC)
        theorem = normalized_constraints_from_theorem(channel, Protocol.MABC)
        assert engine == theorem

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_tdbc_theorem4(self, seed):
        channel = random_channel(seed)
        engine = normalized_constraints_from_engine(channel, Protocol.TDBC)
        theorem = normalized_constraints_from_theorem(channel, Protocol.TDBC)
        assert engine == theorem

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_hbc_theorem6_independent_inputs(self, seed):
        channel = random_channel(seed)
        engine = normalized_constraints_from_engine(channel, Protocol.HBC)
        theorem = normalized_constraints_from_theorem(channel, Protocol.HBC)
        assert engine == theorem

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_non_df_network_drops_sum_constraint(self, seed):
        """The paper's remark: no relay decoding -> no sum-rate cut."""
        channel = random_channel(seed)
        network = bidirectional_relay_network(relay_decodes=False)
        oracle = GaussianMIOracle(gains=channel.gains, power=channel.power)
        constraints = cutset_outer_bound(
            network, protocol_schedule(Protocol.MABC), oracle
        )
        rate_tuples = {tuple(sorted(c.message_names)) for c in constraints}
        assert ("Ra", "Rb") not in rate_tuples
