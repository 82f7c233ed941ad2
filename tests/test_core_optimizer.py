"""Tests for the (kappa, v) parameter-study optimizer — including the
headline reproduction assertion that (100, 12.5) wins."""

import numpy as np
import pytest

from repro.core import (
    ErrorBudget,
    PMFEstimate,
    pairwise_consistency,
    run_parameter_study,
    select_optimal,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.smd import PullingProtocol, parameter_grid


def budget(k, v, stat, sys):
    return ErrorBudget(kappa_pn=k, velocity=v, sigma_stat_raw=stat,
                       sigma_stat=stat, sigma_sys=sys, n_samples=8,
                       cpu_hours=1.0)


def estimate(k, v, values):
    d = np.linspace(0, 10, len(values))
    return PMFEstimate(d, np.asarray(values, float), k, v, "exponential",
                       8, 300.0)


class TestSelectOptimal:
    def test_prefers_slowest_adequate_velocity(self):
        budgets = {
            (100.0, 12.5): budget(100, 12.5, 0.1, 1.0),
            (100.0, 25.0): budget(100, 25.0, 0.1, 1.1),
        }
        estimates = {
            (100.0, 12.5): estimate(100, 12.5, [0, -5, -10]),
            (100.0, 25.0): estimate(100, 25.0, [0, -5.2, -10.1]),
        }
        assert select_optimal(budgets, estimates, tolerance=2.0) == (100.0, 12.5)

    def test_rejects_inconsistent_velocities(self):
        budgets = {
            (100.0, 12.5): budget(100, 12.5, 0.1, 1.0),
            (100.0, 25.0): budget(100, 25.0, 0.1, 1.1),
        }
        estimates = {
            (100.0, 12.5): estimate(100, 12.5, [0, -5, -10]),
            (100.0, 25.0): estimate(100, 25.0, [0, -25, -60]),  # wildly off
        }
        # Curves differ by >> tolerance: falls back to the min-error cell.
        assert select_optimal(budgets, estimates, tolerance=1.0) == (100.0, 12.5)

    def test_tie_break_compares_step_quantized_grids(self):
        # v = 25 has the lower error, but both PMFs are the same line on
        # slightly different grids (each velocity's record steps quantize
        # differently): the tie-break must compare them and pick 12.5.
        budgets = {
            (100.0, 12.5): budget(100, 12.5, 0.1, 1.2),
            (100.0, 25.0): budget(100, 25.0, 0.1, 1.0),
        }
        slow = np.linspace(0.0, 10.0, 41)
        fast = slow + np.r_[0.0, np.full(39, 0.05), 2e-15]
        estimates = {
            (100.0, 12.5): PMFEstimate(slow, -6.0 * slow, 100.0, 12.5,
                                       "exponential", 8, 300.0),
            (100.0, 25.0): PMFEstimate(fast, -6.0 * fast, 100.0, 25.0,
                                       "exponential", 8, 300.0),
        }
        assert select_optimal(budgets, estimates, tolerance=0.5) == (100.0, 12.5)
        # Without a consistent pair the rule keeps the lowest-error cell.
        estimates[(100.0, 25.0)].values[1:] -= 3.0
        assert select_optimal(budgets, estimates, tolerance=0.5) == (100.0, 25.0)

    def test_kappa_chosen_by_median(self):
        budgets = {}
        estimates = {}
        # kappa=10: one lucky cell, terrible otherwise.
        for v, (st, sy) in zip((12.5, 25.0, 50.0), [(0.01, 0.1), (0.1, 9.0), (0.1, 12.0)]):
            budgets[(10.0, v)] = budget(10, v, st, sy)
            estimates[(10.0, v)] = estimate(10, v, [0, -1, -2])
        for v, (st, sy) in zip((12.5, 25.0, 50.0), [(0.2, 1.0), (0.2, 1.1), (0.3, 1.2)]):
            budgets[(100.0, v)] = budget(100, v, st, sy)
            estimates[(100.0, v)] = estimate(100, v, [0, -1, -2])
        assert select_optimal(budgets, estimates)[0] == 100.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            select_optimal({}, {})


class TestRunParameterStudy:
    def test_paper_grid_selects_100_12p5(self, reduced_model):
        """THE headline Fig. 4 result: kappa = 100 pN/A, v = 12.5 A/ns."""
        protos = parameter_grid(distance=10.0, start_z=-5.0)
        result = run_parameter_study(reduced_model, protocols=protos,
                                     n_samples=32, n_bootstrap=60, seed=2005)
        assert result.optimal == (100.0, 12.5)

    def test_error_orderings_match_paper(self, reduced_model):
        """Section IV orderings: kappa=10 least sigma_stat / most sigma_sys,
        kappa=1000 most sigma_stat."""
        protos = parameter_grid(distance=10.0, start_z=-5.0)
        result = run_parameter_study(reduced_model, protocols=protos,
                                     n_samples=32, n_bootstrap=60, seed=2005)
        mean_stat = {
            k: np.mean([b.sigma_stat for b in result.budgets.values()
                        if b.kappa_pn == k])
            for k in (10.0, 100.0, 1000.0)
        }
        mean_sys = {
            k: np.mean([b.sigma_sys for b in result.budgets.values()
                        if b.kappa_pn == k])
            for k in (10.0, 100.0, 1000.0)
        }
        assert mean_stat[10.0] < mean_stat[100.0] < mean_stat[1000.0]
        assert mean_sys[10.0] > mean_sys[100.0]
        # Systematic error grows with velocity at every kappa.
        for k in (10.0, 100.0, 1000.0):
            sys_slow = result.budgets[(k, 12.5)].sigma_sys
            sys_fast = result.budgets[(k, 100.0)].sigma_sys
            assert sys_fast > sys_slow

    def test_fig4_tie_break_spread_is_finite(self, reduced_model):
        """``repro fig4`` at seed 2005: the kappa = 100 velocities record on
        different grids, yet their PMF spread is finite and within the
        2.0 kcal/mol tolerance, so the tie-break picks the slowest."""
        result = run_parameter_study(
            reduced_model, protocols=parameter_grid(distance=10.0, start_z=-5.0),
            n_samples=48, seed=2005)
        ests = result.estimates_at_kappa(100.0)
        assert any(not np.array_equal(ests[0].displacements, e.displacements)
                   for e in ests[1:])
        spread = pairwise_consistency(ests)
        assert np.isfinite(spread) and spread <= 2.0
        assert result.optimal == (100.0, 12.5)

    def test_accessors(self, reduced_model):
        protos = parameter_grid(kappas=[100.0], velocities=[25.0, 50.0],
                                distance=5.0, start_z=-2.5)
        result = run_parameter_study(reduced_model, protocols=protos,
                                     n_samples=8, n_bootstrap=20, seed=1)
        assert result.kappas == [100.0]
        assert result.velocities == [25.0, 50.0]
        assert len(result.estimates_at_kappa(100.0)) == 2
        assert len(result.estimates_at_velocity(25.0)) == 1
        assert len(result.budget_table()) == 2
        assert result.reference_pmf[0] == 0.0

    def test_mixed_windows_rejected(self, reduced_model):
        protos = [
            PullingProtocol(kappa_pn=100.0, velocity=25.0, distance=5.0, start_z=0.0),
            PullingProtocol(kappa_pn=100.0, velocity=25.0, distance=8.0, start_z=0.0),
        ]
        with pytest.raises(ConfigurationError):
            run_parameter_study(reduced_model, protocols=protos, n_samples=4)

    def test_empty_protocols_rejected(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_parameter_study(reduced_model, protocols=[], n_samples=4)

    def test_deterministic(self, reduced_model):
        protos = parameter_grid(kappas=[100.0], velocities=[50.0],
                                distance=5.0, start_z=-2.5)
        a = run_parameter_study(reduced_model, protocols=protos, n_samples=8,
                                n_bootstrap=20, seed=3)
        b = run_parameter_study(reduced_model, protocols=protos, n_samples=8,
                                n_bootstrap=20, seed=3)
        key = (100.0, 50.0)
        np.testing.assert_array_equal(a.estimates[key].values,
                                      b.estimates[key].values)
