"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        actions = {
            action.dest: action for action in parser._actions
        }
        subparsers = actions["command"]
        assert set(subparsers.choices) == {
            "fig3", "fig4", "region", "sumrate", "simulate", "diagrams",
            "sweep", "adaptive", "fairness", "fading", "campaign", "gather",
            "scenarios", "serve", "client",
        }

    def test_region_requires_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["region"])

    def test_bad_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["region", "--protocol", "bogus"])


class TestCommands:
    def test_diagrams(self, capsys):
        assert main(["diagrams"]) == 0
        out = capsys.readouterr().out
        assert "MABC" in out and "HBC" in out

    def test_sumrate(self, capsys):
        code = main(["sumrate", "--power-db", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best protocol" in out
        assert "MABC" in out

    def test_region(self, capsys):
        code = main(["region", "--protocol", "mabc", "--points", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max sum rate" in out

    def test_region_outer(self, capsys):
        code = main(["region", "--protocol", "tdbc", "--outer", "--points", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outer bound" in out

    def test_simulate(self, capsys):
        code = main([
            "simulate", "--protocol", "mabc", "--rounds", "3",
            "--payload-bits", "32", "--power-db", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "goodput" in out

    def test_simulate_dt(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "2",
            "--payload-bits", "32", "--power-db", "25", "--gab-db", "0",
        ])
        assert code == 0

    @pytest.mark.parametrize("protocol", ["dt", "naive4", "mabc", "tdbc", "hbc"])
    def test_simulate_reference_prints_identical_table(self, capsys, protocol):
        args = ["simulate", "--protocol", protocol, "--rounds", "40", "--seed", "3"]
        assert main(args) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--reference"]) == 0
        assert capsys.readouterr().out == batched

    def test_simulate_adaptive_budget(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "2",
            "--payload-bits", "32", "--power-db", "-10",
            "--target-rel-error", "0.5", "--max-rounds", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rounds" in out

    def test_simulate_adaptive_needs_both_flags(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "2",
            "--payload-bits", "32", "--target-rel-error", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "max_rounds" in out

    def test_simulate_importance_sampling(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "64",
            "--payload-bits", "16", "--power-db", "-8", "--gab-db", "0",
            "--importance-sampling", "1.05", "--is-noise-shift", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "weighted FER" in out
        assert "ESS" in out

    def test_simulate_importance_sampling_warns_unresolved(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "4",
            "--payload-bits", "16", "--power-db", "25",
            "--target-rel-error", "0.1", "--max-rounds", "8",
            "--importance-sampling", "1.01",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "unresolved" in captured.err

    def test_simulate_is_flags_need_importance_sampling(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "2",
            "--payload-bits", "16", "--is-noise-shift", "0.2",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "--importance-sampling" in out

    def test_simulate_is_incompatible_with_reference(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "2",
            "--payload-bits", "16", "--importance-sampling", "1.1",
            "--reference",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "--reference" in out

    def test_simulate_is_rejects_bad_scale(self, capsys):
        code = main([
            "simulate", "--protocol", "dt", "--rounds", "2",
            "--payload-bits", "16", "--importance-sampling", "-2.0",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "noise_scale" in out

    def test_sweep(self, capsys):
        code = main(["sweep", "--min-db", "0", "--max-db", "5",
                     "--step-db", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "power sweep" in out
        assert "NAIVE4" in out

    def test_adaptive(self, capsys):
        code = main(["adaptive", "--draws", "5", "--power-db", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "adaptivity gain" in out
        assert "ADAPTIVE" in out

    def test_fairness(self, capsys):
        code = main(["fairness", "--power-db", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fairness analysis" in out
        assert "cost of symmetry" in out

    def test_fading(self, capsys):
        code = main(["fading"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fading campaign" in out
        assert "hbc_dominates_ergodically" in out


class TestCampaignCommand:
    def test_campaign_runs_and_reports(self, capsys, tmp_path):
        code = main([
            "campaign", "--powers-db", "0,10", "--draws", "8",
            "--cache-dir", str(tmp_path), "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ergodic mean" in out
        assert "vectorized executor" in out

    def test_campaign_repeat_hits_cache(self, capsys, tmp_path):
        args = ["campaign", "--powers-db", "10", "--draws", "6",
                "--cache-dir", str(tmp_path), "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "via cache" in out

    def test_campaign_placements_and_executor(self, capsys, tmp_path):
        code = main([
            "campaign", "--placements", "3", "--draws", "0",
            "--protocols", "mabc,hbc", "--executor", "serial",
            "--no-cache", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 relay placements" in out
        assert "serial executor" in out

    def test_campaign_progress_meter(self, capsys, tmp_path):
        code = main(["campaign", "--powers-db", "10", "--draws", "5",
                     "--no-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[campaign]" in captured.err
        assert "100%" in captured.err

    def test_campaign_bad_protocol_rejected(self, capsys):
        code = main(["campaign", "--protocols", "bogus", "--quiet",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown protocol" in out

    def test_campaign_bad_powers_rejected(self, capsys):
        code = main(["campaign", "--powers-db", "ten", "--quiet",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 2
        assert "error" in out

    def test_campaign_bad_executor_params_rejected(self, capsys):
        code = main(["campaign", "--executor", "process", "--processes",
                     "-2", "--quiet", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 2
        assert "error" in out

    def test_campaign_negative_draws_rejected(self, capsys):
        code = main(["campaign", "--draws", "-5", "--quiet", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 2
        assert "non-negative" in out

    def test_campaign_duplicate_protocols_rejected(self, capsys):
        code = main(["campaign", "--protocols", "mabc,mabc", "--quiet",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 2
        assert "duplicate" in out

    def test_campaign_prints_full_spec_hash(self, capsys):
        code = main(["campaign", "--powers-db", "10", "--draws", "4",
                     "--no-cache", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        hash_lines = [l for l in out.splitlines() if l.startswith("spec ")]
        assert len(hash_lines) == 1
        digest = hash_lines[0].split()[1]
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestShardGatherCommands:
    GRID = ["--powers-db", "0,10", "--draws", "6", "--protocols",
            "mabc,hbc", "--seed", "2"]

    def test_shard_gather_matches_unsharded_bitwise(self, capsys, tmp_path):
        cached = [*self.GRID, "--cache-dir", str(tmp_path / "cache")]
        for i in (1, 2, 3):
            assert main(["campaign", *cached, "--shard", f"{i}/3",
                         "--chunk-size", "5", "--quiet"]) == 0
        capsys.readouterr()
        gathered_path = str(tmp_path / "gathered.npy")
        assert main(["gather", *cached, "--dump", gathered_path]) == 0
        out = capsys.readouterr().out
        assert "gathered 24/24 cells" in out
        assert "spec " in out
        reference_path = str(tmp_path / "reference.npy")
        assert main(["campaign", *self.GRID, "--no-cache", "--quiet",
                     "--dump", reference_path]) == 0
        gathered = np.load(gathered_path)
        reference = np.load(reference_path)
        assert gathered.shape == reference.shape
        assert gathered.tobytes() == reference.tobytes()

    def test_rerun_shard_reports_cache_resumption(self, capsys, tmp_path):
        cached = [*self.GRID, "--cache-dir", str(tmp_path)]
        shard = ["campaign", *cached, "--shard", "2/3", "--chunk-size", "5",
                 "--quiet"]
        assert main(shard) == 0
        capsys.readouterr()
        assert main(shard) == 0
        out = capsys.readouterr().out
        assert "shard 2/3: 8/8 cells via cache" in out
        assert "8 from cache, 0 computed" in out

    def test_gather_incomplete_campaign_fails(self, capsys, tmp_path):
        cached = [*self.GRID, "--cache-dir", str(tmp_path)]
        assert main(["campaign", *cached, "--shard", "1/3",
                     "--chunk-size", "5", "--quiet"]) == 0
        capsys.readouterr()
        code = main(["gather", *cached])
        out = capsys.readouterr().out
        assert code == 1
        assert "missing" in out

    def test_gather_missing_cache_directory_fails(self, capsys, tmp_path):
        code = main(["gather", *self.GRID,
                     "--cache-dir", str(tmp_path / "nowhere")])
        out = capsys.readouterr().out
        assert code == 1
        assert "does not exist" in out

    def test_gather_empty_cache_directory_fails(self, capsys, tmp_path):
        code = main(["gather", *self.GRID, "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "no campaign artifacts" in out

    def test_bad_shard_values_rejected(self, capsys):
        for bad in ("4/3", "0/3", "x/3", "1/0", "12"):
            code = main(["campaign", *self.GRID, "--shard", bad, "--quiet"])
            out = capsys.readouterr().out
            assert code == 2, bad
            assert "error" in out

    def test_shard_with_no_cache_rejected(self, capsys):
        code = main(["campaign", *self.GRID, "--shard", "1/2", "--no-cache",
                     "--quiet"])
        out = capsys.readouterr().out
        assert code == 2
        assert "--no-cache" in out

    def test_bad_chunk_size_rejected(self, capsys):
        code = main(["campaign", *self.GRID, "--chunk-size", "0",
                     "--no-cache", "--quiet"])
        out = capsys.readouterr().out
        assert code == 2
        assert "chunk-size" in out


class TestScenariosCommand:
    def test_list_names_every_registered_scenario(self, capsys):
        from repro.scenarios import list_scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in list_scenarios():
            assert name in out
        assert "objective" in out

    def test_list_json_is_machine_readable(self, capsys):
        import json

        from repro.scenarios import list_scenarios

        assert main(["scenarios", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in entries] == sorted(list_scenarios())
        for entry in entries:
            assert entry["axes"]
            assert entry["objective"]
            assert entry["grounding"]
            assert entry["cells"] > 0

    def test_catalog_prints_markdown(self, capsys):
        assert main(["scenarios", "catalog"]) == 0
        out = capsys.readouterr().out
        assert "# Scenario catalog" in out
        assert "| scenario |" in out

    def test_catalog_write_then_check_round_trips(self, capsys, tmp_path):
        page = str(tmp_path / "scenarios.md")
        assert main(["scenarios", "catalog", "--write", page]) == 0
        capsys.readouterr()
        assert main(["scenarios", "catalog", "--check", page]) == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_catalog_check_flags_stale_page(self, capsys, tmp_path):
        page = tmp_path / "scenarios.md"
        page.write_text("# Scenario catalog\n\nout of date\n")
        code = main(["scenarios", "catalog", "--check", str(page)])
        out = capsys.readouterr().out
        assert code == 1
        assert "stale" in out

    def test_catalog_check_missing_page_fails(self, capsys, tmp_path):
        code = main(["scenarios", "catalog", "--check",
                     str(tmp_path / "absent.md")])
        out = capsys.readouterr().out
        assert code == 1

    def test_committed_catalog_page_is_fresh(self, capsys):
        """The checked-in docs/scenarios.md must track the registry."""
        from pathlib import Path

        page = Path(__file__).resolve().parent.parent / "docs" / "scenarios.md"
        assert main(["scenarios", "catalog", "--check", str(page)]) == 0

    def test_run_two_pair_scenario(self, capsys, tmp_path):
        code = main(["scenarios", "run", "two-pair-round-robin",
                     "--cache-dir", str(tmp_path), "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "round_robin_sum_rate over 2 pairs" in out
        assert "spec " in out

    def test_run_repeat_hits_cache(self, capsys, tmp_path):
        args = ["scenarios", "run", "fig4-operating-points",
                "--cache-dir", str(tmp_path), "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "via cache" in out

    def test_run_unknown_scenario_rejected(self, capsys):
        code = main(["scenarios", "run", "bogus", "--no-cache", "--quiet"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown scenario" in out

    def test_run_deepfade_warns_about_unresolved_cells(self, capsys):
        code = main(["scenarios", "run", "operational-deepfade-fer",
                     "--no-cache", "--quiet"])
        captured = capsys.readouterr()
        assert code == 0
        assert "spec " in captured.out
        assert "3 adaptive cells unresolved" in captured.err

    def test_run_dump_writes_grid(self, capsys, tmp_path):
        dump = str(tmp_path / "values.npy")
        code = main(["scenarios", "run", "two-pair-round-robin", "--no-cache",
                     "--quiet", "--dump", dump])
        assert code == 0
        values = np.load(dump)
        assert values.shape == (4, 1, 2, 1, 25)

    def test_scenarios_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])


class TestScenarioParams:
    """`scenarios run --param key=value` factory passthrough."""

    def test_params_reach_the_factory(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "n_draws=6", "--param", "seed=3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spec " in out

    def test_dashed_keys_map_to_underscores(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "n-draws=6"])
        assert code == 0

    def test_tuple_values_parse(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "snr_points_db=5,10",
                     "--param", "n_draws=6"])
        assert code == 0

    def test_unknown_param_rejected(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "bogus=1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "does not accept" in out

    def test_malformed_pair_rejected(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "n_draws"])
        out = capsys.readouterr().out
        assert code == 2
        assert "key=value" in out

    def test_duplicate_key_rejected(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "n_draws=6", "--param", "n_draws=8"])
        out = capsys.readouterr().out
        assert code == 2
        assert "duplicate --param key 'n_draws'" in out

    def test_duplicate_after_dash_normalization_rejected(self, capsys):
        code = main(["scenarios", "run", "finite-snr-dmt", "--no-cache",
                     "--quiet", "--param", "n-draws=6", "--param", "n_draws=8"])
        out = capsys.readouterr().out
        assert code == 2
        assert "duplicate --param key 'n_draws'" in out


class TestScenarioShardGather:
    """`scenarios run --shard` + `scenarios gather` on an operational grid."""

    NAME = "operational-fading-fer"

    def test_sharded_scenario_gathers_bitwise_identically(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        for shard in ("1/2", "2/2"):
            code = main(["scenarios", "run", self.NAME, "--shard", shard,
                         "--cache-dir", cache, "--chunk-size", "4",
                         "--quiet"])
            out = capsys.readouterr().out
            assert code == 0
            assert f"shard {shard}" in out
        gathered = str(tmp_path / "gathered.npy")
        code = main(["scenarios", "gather", self.NAME, "--cache-dir", cache,
                     "--dump", gathered])
        out = capsys.readouterr().out
        assert code == 0
        assert "gathered" in out
        reference = str(tmp_path / "reference.npy")
        assert main(["scenarios", "run", self.NAME, "--no-cache", "--quiet",
                     "--dump", reference]) == 0
        capsys.readouterr()
        assert np.load(gathered).tobytes() == np.load(reference).tobytes()

    def test_shard_requires_cache(self, capsys):
        code = main(["scenarios", "run", self.NAME, "--shard", "1/2",
                     "--no-cache", "--quiet"])
        out = capsys.readouterr().out
        assert code == 2
        assert "--no-cache" in out

    def test_malformed_shard_rejected(self, capsys):
        code = main(["scenarios", "run", self.NAME, "--shard", "3",
                     "--quiet"])
        out = capsys.readouterr().out
        assert code == 2
        assert "shard" in out

    def test_gather_without_artifacts_fails(self, capsys, tmp_path):
        code = main(["scenarios", "gather", self.NAME,
                     "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "no campaign artifacts" in out

    def test_gather_missing_directory_fails(self, capsys, tmp_path):
        code = main(["scenarios", "gather", self.NAME,
                     "--cache-dir", str(tmp_path / "never-created")])
        out = capsys.readouterr().out
        assert code == 1
        assert "does not exist" in out
        assert "run the shards first" in out

    def test_gather_incomplete_shard_reports_missing_ranges(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert main(["scenarios", "run", self.NAME, "--shard", "1/2",
                     "--cache-dir", cache, "--chunk-size", "4",
                     "--quiet"]) == 0
        capsys.readouterr()
        code = main(["scenarios", "gather", self.NAME, "--cache-dir", cache])
        out = capsys.readouterr().out
        assert code == 1
        assert "missing" in out

    def test_fer_units_labelled(self, capsys, tmp_path):
        code = main(["scenarios", "run", self.NAME,
                     "--cache-dir", str(tmp_path), "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "frame error rate" in out


class TestSweepValidation:
    def test_zero_step_rejected(self, capsys):
        code = main(["sweep", "--min-db", "0", "--max-db", "5",
                     "--step-db", "0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "must be positive" in out

    def test_inverted_range_rejected(self, capsys):
        code = main(["sweep", "--min-db", "5", "--max-db", "0",
                     "--step-db", "1"])
        assert code == 2


class TestClientCommand:
    def test_missing_daemon_exits_2_with_clear_message(self, capsys, tmp_path):
        socket_path = str(tmp_path / "nobody-home.sock")
        code = main(["client", "--socket", socket_path, "ping"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"daemon not running at {socket_path}" in captured.err
        assert "Traceback" not in captured.err

    def test_run_against_missing_daemon_exits_2(self, capsys, tmp_path):
        socket_path = str(tmp_path / "stale.sock")
        code = main(["client", "--socket", socket_path, "run",
                     "fig4-operating-points", "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert "daemon not running" in captured.err
