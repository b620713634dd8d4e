"""Unit tests for the per-node transmit power container."""

import numpy as np
import pytest

from repro.channels.power import NODE_ORDER, NodePowers, node_power
from repro.exceptions import InvalidParameterError
from repro.information.functions import db_to_linear


class TestConstruction:
    def test_uniform_factory(self):
        p = NodePowers.uniform(4.0)
        assert (p.pa, p.pb, p.pr) == (4.0, 4.0, 4.0)
        assert p.is_uniform()

    def test_from_db(self):
        p = NodePowers.from_db(0.0, 10.0, 5.0)
        assert p.pa == db_to_linear(0.0)
        assert p.pb == db_to_linear(10.0)
        assert p.pr == db_to_linear(5.0)

    def test_from_mapping(self):
        p = NodePowers.from_mapping({"a": 1.0, "b": 2.0, "r": 3.0})
        assert (p.pa, p.pb, p.pr) == (1.0, 2.0, 3.0)

    def test_from_mapping_rejects_unknown_nodes(self):
        with pytest.raises(InvalidParameterError):
            NodePowers.from_mapping({"a": 1.0, "b": 2.0, "c": 3.0})

    def test_from_mapping_rejects_missing_nodes(self):
        with pytest.raises(InvalidParameterError):
            NodePowers.from_mapping({"a": 1.0, "b": 2.0})

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidParameterError):
            NodePowers(pa=1.0, pb=-0.5, pr=1.0)

    def test_infinite_power_rejected(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            NodePowers(pa=1.0, pb=float("inf"), pr=1.0)

    def test_values_coerced_to_float(self):
        p = NodePowers(pa=1, pb=2, pr=3)
        assert isinstance(p.pa, float)


class TestAccessors:
    def test_power_by_node(self):
        p = NodePowers(pa=1.0, pb=2.0, pr=3.0)
        assert [p.power(node) for node in NODE_ORDER] == [1.0, 2.0, 3.0]

    def test_power_rejects_unknown_node(self):
        with pytest.raises(InvalidParameterError):
            NodePowers.uniform(1.0).power("c")

    def test_as_array_follows_node_order(self):
        p = NodePowers(pa=1.0, pb=2.0, pr=3.0)
        assert np.array_equal(p.as_array(), np.array([1.0, 2.0, 3.0]))

    def test_to_db_round_trips(self):
        p = NodePowers.from_db(0.0, 10.0, 5.0)
        assert p.to_db() == pytest.approx((0.0, 10.0, 5.0))

    def test_total(self):
        assert NodePowers(pa=1.0, pb=2.0, pr=3.0).total == 6.0

    def test_is_uniform_is_exact(self):
        assert not NodePowers(pa=1.0, pb=1.0 + 1e-15, pr=1.0).is_uniform()


class TestNodePowerHelper:
    def test_scalar_passthrough(self):
        assert node_power(2.5, "a") == 2.5
        assert node_power(2.5, "r") == 2.5

    def test_mapping_resolves_by_node(self):
        assert node_power({"a": 1.0, "b": 2.0, "r": 3.0}, "b") == 2.0

    def test_node_powers_resolves_by_node(self):
        assert node_power(NodePowers(pa=1.0, pb=2.0, pr=3.0), "r") == 3.0
