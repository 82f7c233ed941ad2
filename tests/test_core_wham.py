"""Tests for umbrella sampling + WHAM."""

import numpy as np
import pytest

from repro.core import UmbrellaProtocol, run_umbrella_sampling, wham
from repro.errors import AnalysisError, ConfigurationError
from repro.units import KB


class TestUmbrellaProtocol:
    def test_centers(self):
        p = UmbrellaProtocol(start_z=0.0, distance=10.0, n_windows=11)
        assert p.centers.size == 11
        assert p.centers[0] == 0.0 and p.centers[-1] == 10.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UmbrellaProtocol(distance=0.0)
        with pytest.raises(ConfigurationError):
            UmbrellaProtocol(n_windows=1)


class TestWHAMSolver:
    def test_exact_for_synthetic_harmonic_windows(self):
        """Feed WHAM analytic samples from known biased distributions on a
        flat landscape: the recovered PMF must be ~flat."""
        rng = np.random.default_rng(0)
        kT = KB * 300.0
        kappa = 0.5
        centers = np.linspace(0.0, 8.0, 9)
        sigma = np.sqrt(kT / kappa)
        samples = [rng.normal(c, sigma, size=4000) for c in centers]
        pmf, bins, f, iters = wham(samples, centers, kappa, 300.0)
        # Interior bins (well covered): flat within statistical noise.
        inner = (bins > 1.0) & (bins < 7.0)
        assert pmf[inner].std() < 0.25

    def test_recovers_harmonic_well(self):
        """Biased samples from U(x) = 0.5 k0 x^2: WHAM returns the well."""
        rng = np.random.default_rng(1)
        kT = KB * 300.0
        k0 = 0.8          # underlying potential
        kappa = 1.0       # umbrella stiffness
        centers = np.linspace(-3.0, 3.0, 13)
        samples = []
        for c in centers:
            # Combined Gaussian: stiffness k0 + kappa, mean kappa c / (k0+kappa).
            k_tot = k0 + kappa
            mean = kappa * c / k_tot
            samples.append(rng.normal(mean, np.sqrt(kT / k_tot), size=4000))
        pmf, bins, f, iters = wham(samples, centers, kappa, 300.0)
        ref = 0.5 * k0 * bins**2
        ref = ref - ref[np.argmin(np.abs(bins))]
        pmf = pmf - pmf[np.argmin(np.abs(bins))]
        inner = np.abs(bins) < 2.0
        assert np.abs(pmf[inner] - ref[inner]).max() < 0.3

    def test_validation(self):
        with pytest.raises(AnalysisError):
            wham([np.zeros(10)], np.array([0.0, 1.0]), 1.0, 300.0)


class TestRunUmbrellaSampling:
    def test_recovers_reference(self, reduced_model):
        res = run_umbrella_sampling(reduced_model, UmbrellaProtocol(), seed=3)
        ref = reduced_model.reference_pmf(res.bin_centers,
                                          zero_at_start=False)
        ref = ref - ref[0]
        rms = float(np.sqrt(np.mean((res.pmf.values - ref) ** 2)))
        assert rms < 1.5

    def test_converges(self, reduced_model):
        res = run_umbrella_sampling(reduced_model, UmbrellaProtocol(), seed=4)
        assert res.iterations < 5000  # wham.MAX_ITER: converged, not capped

    def test_pmf_estimate_interface(self, reduced_model):
        res = run_umbrella_sampling(
            reduced_model,
            UmbrellaProtocol(n_windows=9), seed=5)
        assert res.pmf.estimator == "umbrella-wham"
        assert res.pmf.displacements[0] == 0.0
        assert res.cpu_hours > 0

    def test_deterministic(self, reduced_model):
        proto = UmbrellaProtocol(n_windows=7)
        a = run_umbrella_sampling(reduced_model, proto, seed=6)
        b = run_umbrella_sampling(reduced_model, proto, seed=6)
        np.testing.assert_array_equal(a.pmf.values, b.pmf.values)

