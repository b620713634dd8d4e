"""Unit tests for repro.network.cutset (the Lemma-1 engine)."""

import pytest

from repro.exceptions import InvalidParameterError, InvalidProtocolError
from repro.information.functions import gaussian_capacity
from repro.network.cutset import (
    CutConstraint,
    GaussianMIOracle,
    PhaseSpec,
    ProtocolSchedule,
    cutset_outer_bound,
)
from repro.network.model import bidirectional_relay_network


@pytest.fixture
def oracle(paper_gains):
    return GaussianMIOracle(gains=paper_gains, power=10.0)


def mabc_schedule():
    return ProtocolSchedule(
        nodes=("a", "b", "r"),
        phases=(PhaseSpec({"a", "b"}), PhaseSpec({"r"})),
    )


def tdbc_schedule():
    return ProtocolSchedule(
        nodes=("a", "b", "r"),
        phases=(PhaseSpec({"a"}), PhaseSpec({"b"}), PhaseSpec({"r"})),
    )


class TestPhaseSpec:
    def test_empty_transmitters_rejected(self):
        with pytest.raises(InvalidProtocolError):
            PhaseSpec(set())

    def test_default_label(self):
        assert PhaseSpec({"b", "a"}).label == "a+b"


class TestProtocolSchedule:
    def test_empty_schedule_rejected(self):
        with pytest.raises(InvalidProtocolError):
            ProtocolSchedule(nodes=("a", "b"), phases=())

    def test_unknown_transmitter_rejected(self):
        with pytest.raises(InvalidProtocolError):
            ProtocolSchedule(nodes=("a", "b"), phases=(PhaseSpec({"x"}),))

    def test_n_phases(self):
        assert mabc_schedule().n_phases == 2


class TestGaussianOracle:
    def test_empty_sets_give_zero(self, oracle):
        assert oracle.mutual_information(0, frozenset(), frozenset("r"),
                                         frozenset()) == 0.0
        assert oracle.mutual_information(0, frozenset("a"), frozenset(),
                                         frozenset()) == 0.0

    def test_single_link(self, oracle, paper_gains):
        value = oracle.mutual_information(0, frozenset("a"), frozenset("r"),
                                          frozenset())
        assert value == pytest.approx(gaussian_capacity(10.0 * paper_gains.gar))

    def test_simo_cut(self, oracle, paper_gains):
        value = oracle.mutual_information(0, frozenset("a"),
                                          frozenset(("r", "b")), frozenset())
        expected = gaussian_capacity(10.0 * (paper_gains.gar + paper_gains.gab))
        assert value == pytest.approx(expected)

    def test_mac_sum(self, oracle, paper_gains):
        value = oracle.mutual_information(0, frozenset(("a", "b")),
                                          frozenset("r"), frozenset())
        expected = gaussian_capacity(10.0 * (paper_gains.gar + paper_gains.gbr))
        assert value == pytest.approx(expected)

    def test_conditioning_set_does_not_change_value(self, oracle):
        with_cond = oracle.mutual_information(0, frozenset("a"), frozenset("r"),
                                              frozenset("b"))
        without = oracle.mutual_information(0, frozenset("a"), frozenset("r"),
                                            frozenset())
        assert with_cond == pytest.approx(without)

    def test_negative_power_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            GaussianMIOracle(gains=paper_gains, power=-1.0)


class TestCutsetOuterBound:
    def test_mabc_reproduces_theorem2_converse(self, oracle, paper_gains):
        """The engine must emit exactly (9), (11), (13), (14), (15)."""
        network = bidirectional_relay_network()
        constraints = cutset_outer_bound(network, mabc_schedule(), oracle)
        by_cut = {c.cut: c for c in constraints}
        p = 10.0
        car = gaussian_capacity(p * paper_gains.gar)
        cbr = gaussian_capacity(p * paper_gains.gbr)
        cmac = gaussian_capacity(p * (paper_gains.gar + paper_gains.gbr))

        # S1 = {a}: Ra <= d1 * C(P G_ar)          -- eq. (9)
        s1 = by_cut[frozenset("a")]
        assert s1.message_names == ("Ra",)
        assert s1.phase_mi == pytest.approx((car, 0.0))
        # S2 = {b}: Rb <= d1 * C(P G_br)          -- eq. (11)
        s2 = by_cut[frozenset("b")]
        assert s2.phase_mi == pytest.approx((cbr, 0.0))
        # S4 = {a,b}: Ra+Rb <= d1 * C(P(G_ar+G_br)) -- eq. (13)
        s4 = by_cut[frozenset(("a", "b"))]
        assert set(s4.message_names) == {"Ra", "Rb"}
        assert s4.phase_mi == pytest.approx((cmac, 0.0))
        # S5 = {a,r}: Ra <= d2 * C(P G_br)        -- eq. (14)
        s5 = by_cut[frozenset(("a", "r"))]
        assert s5.phase_mi == pytest.approx((0.0, cbr))
        # S6 = {b,r}: Rb <= d2 * C(P G_ar)        -- eq. (15)
        s6 = by_cut[frozenset(("b", "r"))]
        assert s6.phase_mi == pytest.approx((0.0, car))

    def test_tdbc_reproduces_theorem4(self, oracle, paper_gains):
        network = bidirectional_relay_network()
        constraints = cutset_outer_bound(network, tdbc_schedule(), oracle)
        by_cut = {c.cut: c for c in constraints}
        p = 10.0
        car = gaussian_capacity(p * paper_gains.gar)
        cbr = gaussian_capacity(p * paper_gains.gbr)
        cab = gaussian_capacity(p * paper_gains.gab)
        simo_a = gaussian_capacity(p * (paper_gains.gar + paper_gains.gab))
        simo_b = gaussian_capacity(p * (paper_gains.gbr + paper_gains.gab))

        assert by_cut[frozenset("a")].phase_mi == pytest.approx((simo_a, 0.0, 0.0))
        assert by_cut[frozenset(("a", "r"))].phase_mi == pytest.approx(
            (cab, 0.0, cbr))
        assert by_cut[frozenset("b")].phase_mi == pytest.approx((0.0, simo_b, 0.0))
        assert by_cut[frozenset(("b", "r"))].phase_mi == pytest.approx(
            (0.0, cab, car))
        assert by_cut[frozenset(("a", "b"))].phase_mi == pytest.approx(
            (car, cbr, 0.0))

    def test_relay_cut_absent(self, oracle):
        network = bidirectional_relay_network()
        constraints = cutset_outer_bound(network, mabc_schedule(), oracle)
        assert frozenset("r") not in {c.cut for c in constraints}

    def test_node_mismatch_rejected(self, oracle):
        network = bidirectional_relay_network()
        bad_schedule = ProtocolSchedule(nodes=("a", "b"), phases=(PhaseSpec({"a"}),))
        with pytest.raises(InvalidProtocolError):
            cutset_outer_bound(network, bad_schedule, oracle)


class TestCutConstraint:
    def test_bound_value(self):
        constraint = CutConstraint(cut=frozenset("a"), message_names=("Ra",),
                                   phase_mi=(2.0, 1.0))
        assert constraint.bound_value((0.25, 0.75)) == pytest.approx(1.25)

    def test_duration_length_checked(self):
        constraint = CutConstraint(cut=frozenset("a"), message_names=("Ra",),
                                   phase_mi=(2.0, 1.0))
        with pytest.raises(InvalidParameterError):
            constraint.bound_value((1.0,))
