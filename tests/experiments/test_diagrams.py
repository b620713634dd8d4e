"""Unit tests for repro.experiments.diagrams."""

from repro.core.protocols import Protocol
from repro.experiments.diagrams import all_protocol_diagrams, phase_timeline


class TestPhaseTimeline:
    def test_dt_omits_relay_row(self):
        text = phase_timeline(Protocol.DT)
        lines = text.splitlines()
        node_column = [line.split()[0] for line in lines[3:]]
        assert node_column == ["a", "b"]

    def test_mabc_shows_joint_transmission(self):
        text = phase_timeline(Protocol.MABC)
        lines = {line.split()[0]: line for line in text.splitlines()[3:]}
        assert lines["a"].count("TX") == 1
        assert lines["b"].count("TX") == 1
        assert lines["r"].count("TX") == 1
        # a and b transmit in the same (first) phase.
        assert lines["a"].index("TX") == lines["b"].index("TX")

    def test_hbc_has_four_phases(self):
        text = phase_timeline(Protocol.HBC)
        assert "phase 4" in text

    def test_every_phase_has_a_transmitter(self):
        for protocol in Protocol:
            text = phase_timeline(protocol)
            node_lines = text.splitlines()[3:]
            n_phases = text.splitlines()[1].count("phase")
            for phase in range(n_phases):
                transmitters = sum(
                    1 for line in node_lines if line[6:].split()[phase] == "TX"
                )
                assert transmitters >= 1


class TestAllDiagrams:
    def test_mentions_every_protocol(self):
        text = all_protocol_diagrams()
        for protocol in Protocol:
            assert protocol.name in text
