"""Tests for the CLI JSON surface, the report command, and SeedLike."""

import json

import numpy as np
import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.obs import REPORT_SCHEMA, Obs
from repro.rng import as_seed_int
from repro.workflow import SpiceCampaign


class TestGlobalFlags:
    def test_every_command_has_seed_and_json(self):
        for name in COMMANDS:
            args = build_parser().parse_args([name])
            assert hasattr(args, "seed"), name
            assert args.json is False, name

    def test_seed_defaults_preserved(self):
        assert build_parser().parse_args(["structure"]).seed == 7
        assert build_parser().parse_args(["qos"]).seed == 3
        assert build_parser().parse_args(["ti"]).seed == 11
        assert build_parser().parse_args(["campaign"]).seed == 2005


class TestJsonOutput:
    def test_pmf_json_parses(self, capsys):
        assert main(["pmf", "--samples", "8", "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "pmf"
        assert doc["seed"] == 1
        assert doc["max_abs_error_kcal_mol"] >= 0.0

    def test_campaign_json_is_run_report(self, capsys):
        assert main(["campaign", "--replicas", "2", "--seed", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["command"] == "campaign"
        assert doc["seed"] == 1
        # Per-site utilization and queue-wait stats.
        assert doc["sites"], "report must name grid sites"
        for row in doc["sites"].values():
            assert set(row) >= {"jobs_completed", "utilization",
                                "queue_wait_hours"}
            assert set(row["queue_wait_hours"]) >= {"mean", "p95", "max"}
        # Total CPU-hours and the rest of the cost block.
        assert doc["cost"]["campaign_cpu_hours"] > 0
        assert doc["cost"]["jobs"] > 0
        assert doc["physics"]["je_samples"] > 0
        assert "channels" in doc["network"]

    def test_report_command_renders_tables(self, capsys):
        assert main(["report", "--replicas", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "SPICE run report" in out
        assert "sites:" in out and "cost:" in out

    def test_report_command_json(self, capsys):
        assert main(["report", "--replicas", "2", "--seed", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["command"] == "report"
        # The service's counters are served by GET /v1/metrics only.
        assert "service" not in doc


class TestExitCodes:
    def test_repro_error_exits_one(self, capsys):
        assert main(["pmf", "--kappa", "-5", "--samples", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["nope"])
        assert exc.value.code == 2


class TestSeedLike:
    def test_as_seed_int_preserves_ints(self):
        assert as_seed_int(2005) == 2005
        assert as_seed_int(np.int64(7)) == 7

    def test_as_seed_int_accepts_generators(self):
        a = as_seed_int(np.random.default_rng(5))
        b = as_seed_int(np.random.default_rng(5))
        assert a == b
        assert isinstance(a, int)

    def test_campaign_accepts_seedlike(self):
        assert SpiceCampaign(seed=7).seed == 7
        derived = SpiceCampaign(seed=np.random.default_rng(5)).seed
        assert derived == SpiceCampaign(seed=np.random.default_rng(5)).seed

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(9)
        assert as_seed_int(seq) == as_seed_int(np.random.SeedSequence(9))


class TestInstrumentationDeterminism:
    def test_instrumented_run_matches_bare_run(self):
        bare = SpiceCampaign(replicas_per_cell=2, seed=1).run()
        instrumented = SpiceCampaign(replicas_per_cell=2, seed=1,
                                     obs=Obs()).run()
        assert bare.summary() == instrumented.summary()
        np.testing.assert_array_equal(bare.pmf.values,
                                      instrumented.pmf.values)


class TestEstimateJson:
    def test_fr_json_surface(self, capsys):
        assert main(["estimate", "--method", "fr", "--samples", "4",
                     "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "estimate"
        assert doc["method"] == "fr"
        assert doc["n_forward"] == doc["n_reverse"] == 4
        assert doc["rms_error_kcal_mol"] >= 0.0
        assert doc["median_diffusion_A2_ns"] > 0.0

    def test_parallel_pull_group_size_recorded(self, capsys):
        assert main(["estimate", "--method", "parallel-pull",
                     "--samples", "4", "--group-size", "2",
                     "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["group_size"] == 2


class TestAdaptiveCampaignJson:
    def test_budget_accounting_and_digest(self, capsys):
        assert main(["campaign", "--adaptive", "--budget", "12",
                     "--bins", "2", "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["adaptive"] is True
        assert sum(doc["allocations"]) == doc["total_replicas"] == 12
        assert len(doc["bin_scores"]) == 2
        assert len(doc["digest"]) == 64
