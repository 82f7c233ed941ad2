"""Tests for the Jarzynski estimators against exact results."""

import numpy as np
import pytest

# Exact-result tests of the raw estimators; bypassing the
# estimate_pmf front door is deliberate here.
from repro.core import (  # spice: noqa SPICE102
    block_estimator,
    cumulant_estimator,
    exponential_estimator,
)
from repro.errors import AnalysisError
from repro.units import KB

T = 300.0
kT = KB * T


class TestExponentialEstimator:
    def test_constant_work_exact(self):
        w = np.full(100, 3.7)
        assert exponential_estimator(w, T) == pytest.approx(3.7)

    def test_gaussian_work_analytic_limit(self):
        # For W ~ N(mu, sigma^2): DeltaF = mu - sigma^2 / (2 kT).
        rng = np.random.default_rng(0)
        mu, sigma = 2.0, 0.5
        w = rng.normal(mu, sigma, size=200_000)
        expected = mu - sigma**2 / (2 * kT)
        assert exponential_estimator(w, T) == pytest.approx(expected, abs=0.05)

    def test_shift_invariance(self):
        # F(W + c) = F(W) + c exactly.
        rng = np.random.default_rng(1)
        w = rng.normal(1.0, 0.3, size=500)
        c = 7.3
        assert exponential_estimator(w + c, T) == pytest.approx(
            exponential_estimator(w, T) + c, abs=1e-10
        )

    def test_jensen_bound(self):
        # DeltaF <= <W> always (second law at the estimator level).
        rng = np.random.default_rng(2)
        w = rng.normal(5.0, 2.0, size=1000)
        assert exponential_estimator(w, T) <= w.mean() + 1e-12

    def test_columnwise(self):
        rng = np.random.default_rng(3)
        w = rng.normal(1.0, 0.2, size=(50, 4))
        out = exponential_estimator(w, T)
        assert out.shape == (4,)

    def test_large_negative_work_no_overflow(self):
        w = np.array([-500.0, -450.0, -480.0])
        out = exponential_estimator(w, T)
        assert np.isfinite(out)
        assert out <= -450.0

    def test_non_finite_rejected(self):
        with pytest.raises(AnalysisError):
            exponential_estimator(np.array([1.0, np.nan]), T)

    def test_single_sample(self):
        assert exponential_estimator(np.array([2.0]), T) == pytest.approx(2.0)


class TestCumulantEstimator:
    def test_exact_for_gaussian(self):
        rng = np.random.default_rng(4)
        mu, sigma = 3.0, 1.0
        w = rng.normal(mu, sigma, size=100_000)
        expected = mu - sigma**2 / (2 * kT)
        assert cumulant_estimator(w, T) == pytest.approx(expected, abs=0.05)

    def test_needs_two_samples(self):
        with pytest.raises(AnalysisError):
            cumulant_estimator(np.array([1.0]), T)

    def test_less_biased_than_exponential_at_small_n(self):
        # For wide Gaussian work and few samples, the exponential estimator
        # is biased upward; the cumulant is unbiased for Gaussians.
        rng = np.random.default_rng(5)
        mu, sigma = 5.0, 2.0  # sigma ~ 3.3 kT: hard for JE at n=10
        expected = mu - sigma**2 / (2 * kT)
        exp_err = []
        cum_err = []
        for _ in range(300):
            w = rng.normal(mu, sigma, size=10)
            exp_err.append(exponential_estimator(w, T) - expected)
            cum_err.append(cumulant_estimator(w, T) - expected)
        assert abs(np.mean(cum_err)) < abs(np.mean(exp_err))
        assert np.mean(exp_err) > 0  # bias is upward


class TestBlockEstimator:
    def test_blocks_agree_for_tight_work(self):
        rng = np.random.default_rng(6)
        w = rng.normal(1.0, 0.01, size=64)
        mean = block_estimator(w, T, n_blocks=4)
        assert mean == pytest.approx(1.0, abs=0.01)

    def test_block_count_validation(self):
        with pytest.raises(AnalysisError):
            block_estimator(np.ones(3), T, n_blocks=4)
        with pytest.raises(AnalysisError):
            block_estimator(np.ones(10), T, n_blocks=1)

    def test_columnwise_shapes(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(40, 3))
        assert block_estimator(w, T, n_blocks=4).shape == (3,)
