"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["pmf"])
        assert args.kappa == 100.0
        assert args.velocity == 12.5

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])


class TestCommands:
    def test_structure(self, capsys):
        assert main(["structure", "--bases", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "alpha-hemolysin" in out
        assert "# pore wall" in out

    def test_pmf(self, capsys):
        assert main(["pmf", "--samples", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "SMD-JE PMF" in out
        assert "max |error|" in out

    def test_pmf_custom_parameters(self, capsys):
        assert main(["pmf", "--kappa", "1000", "--velocity", "100",
                     "--samples", "8"]) == 0
        assert "kappa=1000" in capsys.readouterr().out

    def test_ti(self, capsys):
        assert main(["ti", "--replicas", "4", "--stations", "6"]) == 0
        out = capsys.readouterr().out
        assert "thermodynamic-integration" in out

    def test_qos(self, capsys):
        assert main(["qos", "--frames", "10"]) == 0
        out = capsys.readouterr().out
        assert "lightpath" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--samples", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal:" in out

    def test_campaign_small(self, capsys):
        assert main(["campaign", "--replicas", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "batch:" in out and "optimal:" in out

    def test_production_small(self, capsys):
        assert main(["production", "--samples", "6",
                     "--z-min", "-10", "--z-max", "10"]) == 0
        out = capsys.readouterr().out
        assert "rms error" in out and "constriction barrier" in out


class TestEstimateCommand:
    def test_fr_reports_diffusion_and_cost(self, capsys):
        assert main(["estimate", "--method", "fr", "--samples", "4",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PMF via fr" in out
        assert "rms error" in out
        assert "D(z) median" in out

    def test_parallel_pull(self, capsys):
        assert main(["estimate", "--method", "parallel-pull",
                     "--samples", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PMF via parallel-pull" in out
        assert "D(z)" not in out  # forward-only: no diffusion profile

    def test_exponential_matches_registry_default(self, capsys):
        assert main(["estimate", "--method", "exponential",
                     "--samples", "4", "--seed", "1"]) == 0
        assert "PMF via exponential" in capsys.readouterr().out

    def test_method_choices_are_the_registered_estimators(self):
        from repro.core import available_estimators

        (method,) = [a for a in COMMANDS["estimate"].args
                     if "--method" in a.flags]
        assert sorted(method.kwargs["choices"]) == list(available_estimators())

    def test_scenario_choices_are_the_registered_scenarios(self):
        from repro.resil import SCENARIOS

        (scenario,) = [a for a in COMMANDS["chaos"].args
                       if "--scenario" in a.flags]
        assert sorted(scenario.kwargs["choices"]) == sorted(SCENARIOS)

    def test_parser_does_not_load_the_estimators(self):
        """Each command imports its subsystem itself, so building the
        parser (every command does) never pays for repro.core."""
        code = ("import sys, repro.cli; repro.cli.build_parser(); "
                "print('repro.core' in sys.modules)")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
        assert out.strip() == "False"


class TestAdaptiveCampaignCommand:
    def test_allocation_table_and_digest(self, capsys):
        assert main(["campaign", "--adaptive", "--budget", "12",
                     "--bins", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "adaptive allocation over 2 bins" in out
        assert "score(MSE)" in out
        assert "digest:" in out

    def test_resume_from_store_is_bit_identical(self, tmp_path, capsys):
        argv = ["campaign", "--adaptive", "--budget", "12", "--bins", "2",
                "--seed", "1", "--store", str(tmp_path / "astore")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        warm = capsys.readouterr().out
        assert cold.splitlines()[-1] == warm.splitlines()[-1]  # same digest
