"""Tests for the cost model against the paper's quoted figures."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import PAPER_COST_MODEL


class TestPaperNumbers:
    def test_3000_cpu_hours_per_ns(self):
        # "about 3000 CPU-hours ... to simulate 1 ns" (24 h x 128 procs).
        assert PAPER_COST_MODEL.cpu_hours_per_ns() == pytest.approx(3072.0)

    def test_vanilla_3e7(self):
        # "3 x 10^7 CPU-hours to simulate 10 microseconds".
        total = PAPER_COST_MODEL.vanilla_total_cpu_hours()
        assert total == pytest.approx(3.072e7, rel=0.01)
        assert 2.5e7 < total < 3.5e7

    def test_smdje_reduction_bracket(self):
        low = PAPER_COST_MODEL.smdje_total_cpu_hours(reduction=50.0)
        high = PAPER_COST_MODEL.smdje_total_cpu_hours(reduction=100.0)
        assert low == pytest.approx(PAPER_COST_MODEL.vanilla_total_cpu_hours() / 50)
        assert high < low
        mid = PAPER_COST_MODEL.smdje_total_cpu_hours()
        assert high < mid < low

    def test_moores_law_couple_of_decades(self):
        # "Relying only on Moore's law ... a couple of decades away."
        years = PAPER_COST_MODEL.moores_law_years_until_routine()
        assert 10.0 < years < 30.0

    def test_wall_hours(self):
        # 1 ns on 128 procs at reference speed = 24 h.
        assert PAPER_COST_MODEL.wall_hours(1.0, 128) == pytest.approx(24.0)
        # Doubling procs halves wall time (linear-scaling assumption).
        assert PAPER_COST_MODEL.wall_hours(1.0, 256) == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PAPER_COST_MODEL.wall_hours(0.0, 128)
        with pytest.raises(ConfigurationError):
            PAPER_COST_MODEL.smdje_total_cpu_hours(reduction=0.0)
