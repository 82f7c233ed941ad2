"""Tests for the statistical/systematic error analysis."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    PMFEstimate,
    analyze_ensemble,
    bootstrap_error,
    estimate_pmf,
    cost_normalization_factor,
    cost_normalized_error,
    pairwise_consistency,
    pmf_error,
)
from repro.errors import AnalysisError, ConfigurationError


class TestCostNormalization:
    def test_paper_sqrt8_rule(self):
        # One sample at 12.5 costs what eight at 100 cost: the raw error of
        # the v=100 set shrinks by sqrt(8) at equal budget.
        f = cost_normalization_factor(100.0, reference_velocity=12.5)
        assert f == pytest.approx(1.0 / np.sqrt(8.0))

    def test_reference_is_identity(self):
        assert cost_normalization_factor(12.5, 12.5) == 1.0

    def test_applies_elementwise(self):
        err = np.array([1.0, 2.0])
        out = cost_normalized_error(err, 50.0, 12.5)
        np.testing.assert_allclose(out, err / 2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cost_normalization_factor(0.0, 12.5)


def stat_error(ens, n_boot, seed, **kw):
    """Per-station bootstrap standard error of an ensemble's PMF."""
    return np.sqrt(bootstrap_error(ens.works, ens.temperature, "exponential",
                                   np.random.default_rng(seed),
                                   n_boot=n_boot, **kw).variance)


T = 300.0


class TestBootstrap:
    def test_error_shrinks_with_samples(self, reduced_model):
        from repro.smd import PullingProtocol, run_pulling_ensemble

        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0, distance=5.0,
                                start_z=-2.5, equilibration_ns=0.01)
        small = run_pulling_ensemble(reduced_model, proto, n_samples=8, seed=1)
        large = run_pulling_ensemble(reduced_model, proto, n_samples=64, seed=1)
        e_small = stat_error(small, n_boot=100, seed=2)
        e_large = stat_error(large, n_boot=100, seed=2)
        assert e_large[1:].mean() < e_small[1:].mean()

    def test_station_zero_pinned(self, small_ensemble):
        err = stat_error(small_ensemble, n_boot=50, seed=3)
        assert err[0] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_with_seed(self, small_ensemble):
        a = stat_error(small_ensemble, n_boot=50, seed=4)
        b = stat_error(small_ensemble, n_boot=50, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_validation(self, small_ensemble):
        with pytest.raises(ConfigurationError):
            stat_error(small_ensemble, n_boot=1, seed=0)

    def test_block_count_validation(self, small_ensemble):
        m = small_ensemble.n_samples
        for n_blocks in (m + 1, 1, 0):
            with pytest.raises(AnalysisError, match="n_blocks"):
                stat_error(small_ensemble, n_boot=8, seed=0, n_blocks=n_blocks)

    def test_non_finite_works_refused(self):
        with pytest.raises(AnalysisError):
            bootstrap_error(np.array([1.0, np.nan]), T, "exponential",
                            np.random.default_rng(0), n_boot=8)

    def test_single_replica_refused(self):
        with pytest.raises(AnalysisError):
            bootstrap_error(np.array([1.0]), T, "exponential",
                            np.random.default_rng(0), n_boot=8)

    def test_one_replica_per_block_is_the_replica_bootstrap(
            self, small_ensemble):
        # n_blocks = m draws rng.integers(0, m, m) replicas per resample:
        # the replica bootstrap of the whole PMF curve, bit for bit.
        m = small_ensemble.n_samples
        rng = np.random.default_rng(6)
        draws = (rng.integers(0, m, size=m) for _ in range(20))
        curves = np.array([
            estimate_pmf(replace(small_ensemble, works=small_ensemble.works[i],
                                 positions=small_ensemble.positions[i])).values
            for i in draws])
        np.testing.assert_array_equal(
            stat_error(small_ensemble, n_boot=20, seed=6),
            curves.std(axis=0, ddof=1))

    def test_constant_works_have_no_error(self):
        err = bootstrap_error(np.full(20, 3.0), T, "exponential",
                              np.random.default_rng(5), n_boot=16)
        assert err.estimate == pytest.approx(3.0)
        assert (err.bias, err.variance, err.mse) == (0.0, 0.0, 0.0)

    def test_error_grows_with_work_spread(self):
        base = np.random.default_rng(1).normal(size=64)
        narrow, wide = (bootstrap_error(k * base, T, "exponential",
                                        np.random.default_rng(2), n_boot=64)
                        for k in (0.2, 3.0))
        assert wide.mse > narrow.mse

    def test_exponential_bias_is_upward(self):
        # The direct JE average over-estimates DeltaF at finite n; the
        # bootstrap bias sees it on a wide work distribution.
        w = np.random.default_rng(9).normal(0.0, 2.0, size=50)
        err = bootstrap_error(w, T, "exponential", np.random.default_rng(3),
                              n_boot=100)
        assert err.bias > 0

    def test_fast_pull_scores_worse_than_slow(self, reduced_model):
        from repro.smd import PullingProtocol, run_pulling_ensemble

        mse = {}
        for v in (12.5, 100.0):
            proto = PullingProtocol(kappa_pn=1000.0, velocity=v,
                                    distance=10.0, start_z=-5.0,
                                    equilibration_ns=0.05)
            ens = run_pulling_ensemble(reduced_model, proto, n_samples=24,
                                       seed=int(v))
            mse[v] = bootstrap_error(ens.final_works(), ens.temperature,
                                     "exponential", np.random.default_rng(0),
                                     n_boot=64).mse
        assert mse[100.0] > 10 * mse[12.5]


class TestSystematicError:
    """``pmf_error`` is sigma_sys (and every other PMF-vs-curve RMS)."""

    def test_zero_against_itself(self):
        values = np.array([0.0, -1.0, -2.0, -4.0])
        assert pmf_error(values, values.copy()) == pytest.approx(0.0)

    def test_constant_offset_ignored(self):
        values = np.array([0.0, -1.0, -2.0, -4.0])
        assert pmf_error(values, values + 10.0) == pytest.approx(0.0)
        assert pmf_error(values - 3.0, values) == pytest.approx(0.0)

    def test_rms_of_known_deviation(self):
        # After re-zeroing both, deviation is [0,1,0,1]: RMS = sqrt(0.5).
        assert pmf_error([0.0, 1.0, 0.0, 1.0], np.zeros(4)) \
            == pytest.approx(np.sqrt(0.5))

    def test_grid_mismatch(self):
        with pytest.raises(AnalysisError):
            pmf_error([0.0, 1.0], np.zeros(5))


#: A PMF-like curve whose first entry is exactly 0.0, as every replaced
#: call site fed: stitched PMFs, estimate_pmf values, TI's cumsum and
#: reference_pmf(zero_at_start=True).
zero_started = st.integers(2, 40).flatmap(lambda g: arrays(
    np.float64, g, elements=st.floats(-200.0, 200.0, allow_nan=False,
                                      allow_infinity=False),
).map(lambda a: np.concatenate([[0.0], a[1:]])))


class TestPmfErrorMatchesTheFormulasItReplaced:
    """Bit-equal to each inline RMS it replaced, on curves that start at
    0, so no reported error moved (exact ``==`` is the point here)."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_adaptive_and_production_rms(self, data):
        # workflow/adaptive.py and workflow/production.py: curves already
        # zeroed at the first station.
        pmf = data.draw(zero_started)
        ref = data.draw(arrays(np.float64, pmf.shape, elements=st.floats(
            -200.0, 200.0))).copy()
        ref -= ref[0]
        inline = float(np.sqrt(np.mean((pmf - ref) ** 2)))
        assert pmf_error(pmf, ref) == inline  # spice: noqa SPICE201

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cli_rms_against_an_unzeroed_reference(self, data):
        # cli.py estimate / ti: reference_pmf(zero_at_start=False) shifted
        # by its first entry, against a curve that starts at 0.
        values = data.draw(zero_started)
        raw = data.draw(arrays(np.float64, values.shape, elements=st.floats(
            -200.0, 200.0)))
        ref = raw - raw[0]
        inline = float(np.sqrt(np.mean((values - ref) ** 2)))
        assert pmf_error(values, raw) == inline  # spice: noqa SPICE201

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pairwise_consistency_inner_rms(self, data):
        a = data.draw(zero_started)
        b = data.draw(arrays(np.float64, a.shape, elements=st.floats(
            -200.0, 200.0)))
        inline = float(np.sqrt(np.mean(((a - a[0]) - (b - b[0])) ** 2)))
        assert pmf_error(a, b) == inline  # spice: noqa SPICE201


class TestPairwiseConsistency:
    def make(self, values):
        d = np.linspace(0, 5, len(values))
        return PMFEstimate(d, np.asarray(values, float), 100.0, 12.5,
                           "exponential", 8, 300.0)

    def test_identical_curves(self):
        a = self.make([0, -1, -2])
        b = self.make([0, -1, -2])
        assert pairwise_consistency([a, b]) == pytest.approx(0.0)

    def test_spread_measured(self):
        a = self.make([0, 0, 0])
        b = self.make([0, 2, 0])
        assert pairwise_consistency([a, b]) == pytest.approx(np.sqrt(4 / 3))

    def test_needs_two(self):
        with pytest.raises(AnalysisError):
            pairwise_consistency([self.make([0, 1])])

    def test_compared_on_the_slowest_grid(self):
        # One line recorded on two step-quantized grids: no spread.
        slow = self.make([0, -1, -2, -3, -4, -5])
        d = slow.displacements + [0.0, 0.3, 0.2, 0.1, 0.4, 1e-15]
        fast = PMFEstimate(d, -d, 100.0, 50.0, "exponential", 8, 300.0)
        assert pairwise_consistency([fast, slow]) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_ranges_refused(self):
        a = self.make([0, -1, -2])
        b = PMFEstimate(a.displacements + 10.0, a.values, 100.0, 25.0,
                        "exponential", 8, 300.0)
        with pytest.raises(AnalysisError, match="no displacement range"):
            pairwise_consistency([a, b])


class TestAnalyzeEnsemble:
    def test_full_budget(self, small_ensemble, reduced_model):
        ref = reduced_model.reference_pmf(
            small_ensemble.protocol.start_z + small_ensemble.displacements
        )
        budget = analyze_ensemble(small_ensemble, ref, reference_velocity=12.5,
                                  n_bootstrap=50, seed=5)
        assert budget.kappa_pn == 100.0
        assert budget.sigma_stat > 0
        assert budget.sigma_sys > 0
        assert budget.sigma_total == pytest.approx(
            np.hypot(budget.sigma_stat, budget.sigma_sys)
        )
        # v=50 ensemble: normalized error smaller than raw by sqrt(12.5/50)=2.
        assert budget.sigma_stat == pytest.approx(budget.sigma_stat_raw / 2.0)
