"""Integration: CLI entry points against the real experiment harness."""

import numpy as np
import pytest

from repro.cli import main


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
        assert main(["region", "--protocol", "hbc"]) == 0
        region_out = capsys.readouterr().out
        assert main(["scenarios", "run", "grid", "--param", "protocols=hbc",
                     "--param", "draws=0", "--param", "powers-db=10",
                     "--no-cache", "--quiet"]) == 0
        grid_out = capsys.readouterr().out
        assert "max sum rate 3.3313 bits/use" in region_out
        hbc_rows = [line.split() for line in grid_out.splitlines()
                    if line.split()[:1] == ["HBC"]]
        assert len(hbc_rows) == 1
        assert hbc_rows[0][2] == "3.3313"

    def test_simulate_protocols(self, capsys):
        for protocol in ("dt", "mabc", "tdbc", "hbc"):
            code = main([
                "simulate", "--protocol", protocol, "--rounds", "2",
                "--payload-bits", "32", "--power-db", "22",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "goodput" in out


class TestTrafficScenarioDumps:
    """Traffic cells realize link outcomes through one fused driver per
    batch: the default executor hands it a whole protocol run, the serial
    executor one cell per call. Both dumps must agree bit for bit."""

    @pytest.mark.parametrize("name", ["queueing-latency", "multi-pair-scheduling"])
    def test_fused_dump_equals_serial_dump(self, name, capsys, tmp_path):
        runs = {"default": [], "serial": ["--executor", "serial"]}
        outputs, arrays = {}, {}
        for label, flags in runs.items():
            dump = tmp_path / f"{label}.npy"
            argv = ["scenarios", "run", name, "--no-cache", "--quiet", *flags]
            assert main([*argv, "--dump", str(dump)]) == 0
            outputs[label] = capsys.readouterr().out
            arrays[label] = np.load(dump)
        assert "via serial executor" in outputs["serial"]
        assert "via serial executor" not in outputs["default"]
        fused, serial = arrays["default"], arrays["serial"]
        assert fused.size > 0
        assert fused.shape == serial.shape
        assert fused.tobytes() == serial.tobytes()
