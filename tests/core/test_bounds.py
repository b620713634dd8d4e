"""Unit tests for the Theorem 2-6 constraint builders."""

from repro.core.bounds import (
    ALL_BOUNDS,
    bound_for,
    dt_capacity,
    hbc_inner,
    hbc_outer,
    mabc_inner,
    mabc_outer,
    tdbc_inner,
    tdbc_outer,
)
from repro.core.protocols import Protocol, protocol_phases
from repro.core.terms import BoundKind, MiKey


def constraint_map(spec):
    """Group constraint forms by their rate tuple for structural checks."""
    grouped = {}
    for c in spec.constraints:
        grouped.setdefault(tuple(sorted(c.rates)), []).append(c.form.terms)
    return grouped


class TestStructuralCounts:
    def test_dt_has_two_constraints(self):
        assert len(dt_capacity().constraints) == 2

    def test_mabc_has_five_constraints(self):
        assert len(mabc_inner().constraints) == 5

    def test_tdbc_inner_has_four_constraints(self):
        # Theorem 3 notably has NO sum-rate constraint.
        spec = tdbc_inner()
        assert len(spec.constraints) == 4
        assert ("Ra", "Rb") not in constraint_map(spec)

    def test_tdbc_outer_has_five_constraints(self):
        spec = tdbc_outer()
        assert len(spec.constraints) == 5
        assert ("Ra", "Rb") in constraint_map(spec)

    def test_hbc_specs_have_five_constraints(self):
        assert len(hbc_inner().constraints) == 5
        assert len(hbc_outer().constraints) == 5

    def test_phase_counts_match_protocols(self):
        for (protocol, _kind), builder in ALL_BOUNDS.items():
            spec = builder()
            assert spec.n_phases == len(protocol_phases(protocol))


class TestTheorem2Structure:
    def test_mabc_ra_constraints(self):
        grouped = constraint_map(mabc_inner())
        ra_forms = grouped[("Ra",)]
        assert ((0, MiKey.LINK_AR),) in ra_forms       # relay decodes a
        assert ((1, MiKey.LINK_BR),) in ra_forms       # b decodes broadcast

    def test_mabc_sum_constraint_is_mac(self):
        grouped = constraint_map(mabc_inner())
        assert grouped[("Ra", "Rb")] == [((0, MiKey.MAC_SUM),)]

    def test_mabc_outer_identical_to_inner(self):
        assert mabc_inner().constraints == mabc_outer().constraints


class TestTheorem34Structure:
    def test_tdbc_inner_side_information_terms(self):
        grouped = constraint_map(tdbc_inner())
        assert ((0, MiKey.LINK_AB), (2, MiKey.LINK_BR)) in grouped[("Ra",)]
        assert ((1, MiKey.LINK_AB), (2, MiKey.LINK_AR)) in grouped[("Rb",)]

    def test_tdbc_outer_uses_simo_cuts(self):
        grouped = constraint_map(tdbc_outer())
        assert ((0, MiKey.CUT_A_RB),) in grouped[("Ra",)]
        assert ((1, MiKey.CUT_B_RA),) in grouped[("Rb",)]

    def test_tdbc_outer_sum_constraint(self):
        grouped = constraint_map(tdbc_outer())
        assert grouped[("Ra", "Rb")] == [((0, MiKey.LINK_AR), (1, MiKey.LINK_BR))]


class TestTheorem56Structure:
    def test_hbc_inner_accumulates_mac_phase(self):
        grouped = constraint_map(hbc_inner())
        assert ((0, MiKey.LINK_AR), (2, MiKey.LINK_AR)) in grouped[("Ra",)]
        assert ((1, MiKey.LINK_BR), (2, MiKey.LINK_BR)) in grouped[("Rb",)]

    def test_hbc_sum_constraint_spans_three_phases(self):
        grouped = constraint_map(hbc_inner())
        assert grouped[("Ra", "Rb")] == [
            ((0, MiKey.LINK_AR), (1, MiKey.LINK_BR), (2, MiKey.MAC_SUM))
        ]

    def test_hbc_outer_differs_only_in_cut_terms(self):
        inner = constraint_map(hbc_inner())
        outer = constraint_map(hbc_outer())
        assert inner[("Ra", "Rb")] == outer[("Ra", "Rb")]
        assert ((0, MiKey.CUT_A_RB), (2, MiKey.LINK_AR)) in outer[("Ra",)]


class TestRegistry:
    def test_bound_for_known_pairs(self):
        for protocol in Protocol:
            for kind in BoundKind:
                spec = bound_for(protocol, kind)
                assert spec.protocol is protocol

    def test_dt_outer_equals_inner(self):
        assert bound_for(Protocol.DT, BoundKind.OUTER).constraints == \
            dt_capacity().constraints

    def test_labels_mention_theorems(self):
        assert "Theorem 2" in mabc_inner().label
        assert "Theorem 3" in tdbc_inner().label
        assert "Theorem 4" in tdbc_outer().label
        assert "Theorem 5" in hbc_inner().label
        assert "Theorem 6" in hbc_outer().label
