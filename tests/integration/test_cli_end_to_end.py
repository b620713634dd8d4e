"""Integration: CLI entry points against the real experiment harness."""

import dataclasses
import re

import numpy as np
import pytest

from repro.api import evaluate
from repro.cli import main
from repro.scenarios import PowerPolicy, get_scenario
from repro.traffic import simulator

SPEC_LINE = re.compile(r"^spec [0-9a-f]{64}$", re.MULTILINE)


def run_cli(capsys, command: str) -> str:
    """Run one ``repro`` command line, assert it exits 0, return stdout."""
    assert main(command.split()) == 0
    return capsys.readouterr().out


class TestFigureCommands:
    def test_fig4_single_panel_exits_clean(self, capsys):
        code = main(["fig4", "--power-db", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_fig4_csv_export(self, capsys, tmp_path):
        code = main(["fig4", "--power-db", "0", "--csv-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        assert list(tmp_path.glob("*.csv"))

    def test_fig3_exits_clean(self, capsys):
        code = main(["fig3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "placement sweep" in out
        assert "[FAIL]" not in out


class TestAnalysisCommands:
    def test_region_matches_grid_scenario(self, capsys):
        """The per-point LP (`region`) and the campaign kernel (`scenarios
        run grid`) report the same HBC optimum, 3.3313 at P=10 dB."""
        region_out = run_cli(capsys, "region --protocol hbc")
        grid = "scenarios run grid --param protocols=hbc --param draws=0"
        grid_out = run_cli(capsys, f"{grid} --param powers-db=10 --no-cache --quiet")
        assert "max sum rate 3.3313 bits/use" in region_out
        hbc_rows = [
            line.split()
            for line in grid_out.splitlines()
            if line.split()[:1] == ["HBC"]
        ]
        assert len(hbc_rows) == 1
        assert hbc_rows[0][2] == "3.3313"

    def test_simulate_protocols(self, capsys):
        for protocol in ("dt", "mabc", "tdbc", "hbc"):
            simulate = f"simulate --protocol {protocol} --rounds 2"
            out = run_cli(capsys, f"{simulate} --payload-bits 32 --power-db 22")
            assert "goodput" in out


class TestScenarioRuns:
    """A registered scenario prints its value table and full spec hash."""

    @pytest.mark.parametrize(
        "command, label",
        [
            ("operational-goodput", "goodput [bits/symbol]"),
            ("power-allocation-sweep", "sum rates [bits/use]"),
            (
                "multi-pair-scheduling --param scheduler=longest-queue",
                "stable offered load [frames/slot]",
            ),
        ],
        ids=["operational-goodput", "power-allocation-sweep", "longest-queue"],
    )
    def test_run_prints_table_and_spec_hash(self, capsys, command, label):
        out = run_cli(capsys, f"scenarios run {command} --no-cache --quiet")
        assert label in out
        assert SPEC_LINE.search(out)


@pytest.fixture
def traffic_widths(monkeypatch):
    """Record how many cells each traffic driver call receives."""
    widths = []
    driver = simulator.traffic_link_values

    def counting(protocol, gab, *args, **kwargs):
        widths.append(len(gab))
        return driver(protocol, gab, *args, **kwargs)

    monkeypatch.setattr(simulator, "traffic_link_values", counting)
    return widths


class TestTrafficScenarioDumps:
    """Traffic cells realize link outcomes through one fused driver per
    batch: the default executor hands it a whole protocol run, the serial
    executor one cell per call. Both must agree bit for bit, and the
    default run must really hand the driver more than one cell."""

    def test_fused_dump_equals_serial_dump(self, capsys, tmp_path, traffic_widths):
        runs = {"default": "", "serial": " --executor serial"}
        outputs, arrays, widths = {}, {}, {}
        for label, flags in runs.items():
            dump = tmp_path / f"{label}.npy"
            run = f"scenarios run queueing-latency --no-cache --quiet{flags}"
            outputs[label] = run_cli(capsys, f"{run} --dump {dump}")
            arrays[label] = np.load(dump)
            widths[label] = list(traffic_widths)
            traffic_widths.clear()
        assert "delivery latency [slots]" in outputs["default"]
        assert SPEC_LINE.search(outputs["default"])
        assert "via serial executor" in outputs["serial"]
        assert "via serial executor" not in outputs["default"]
        assert min(widths["default"]) >= 2
        assert set(widths["serial"]) == {1}
        fused, serial = arrays["default"], arrays["serial"]
        assert fused.size > 0
        assert fused.shape == serial.shape
        assert fused.tobytes() == serial.tobytes()

    def test_two_power_multi_pair_fuses_bitwise(self, traffic_widths):
        """The registered multi-pair scenario has one cell per protocol
        block, so its default run is already one cell per call. A link
        spec merges every power of a protocol into one batch: with two
        powers each driver call carries two cells. Its knees sit at the
        top of the registered load sweep, where they do not depend on
        the realization, so the sweep is shifted up to put them inside."""
        scenario = get_scenario("multi-pair-scheduling")
        traffic = dataclasses.replace(
            scenario.link.traffic, offered_loads=(1.0, 1.2, 1.4, 1.6, 1.8)
        )
        scenario = dataclasses.replace(
            scenario,
            power=PowerPolicy.uniform(powers_db=(5.0, 10.0)),
            link=dataclasses.replace(scenario.link, traffic=traffic),
        )
        fused = evaluate(scenario)
        assert traffic_widths == [2, 2]
        traffic_widths.clear()
        serial = evaluate(scenario, executor="serial")
        assert traffic_widths == [1, 1, 1, 1]
        top = 1.8 * 2.0 * sum(traffic.pair_rates())
        assert fused.values.max() < top
        assert fused.values.shape == serial.values.shape
        assert fused.values.tobytes() == serial.values.tobytes()
