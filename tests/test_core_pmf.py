"""Tests for PMF reconstruction."""

import numpy as np
import pytest

from repro.core import PMFEstimate, estimate_pmf
from repro.errors import AnalysisError, ConfigurationError


class TestEstimatePMF:
    def test_exponential_default(self, small_ensemble):
        est = estimate_pmf(small_ensemble)
        assert est.estimator == "exponential"
        assert est.values[0] == 0.0
        assert est.displacements.shape == est.values.shape
        assert est.n_samples == small_ensemble.n_samples

    def test_cumulant_option(self, small_ensemble):
        est = estimate_pmf(small_ensemble, estimator="cumulant")
        assert est.estimator == "cumulant"

    def test_unknown_estimator(self, small_ensemble):
        with pytest.raises(ConfigurationError):
            estimate_pmf(small_ensemble, estimator="magic")

    def test_cpu_hours_carried(self, small_ensemble):
        est = estimate_pmf(small_ensemble)
        assert est.cpu_hours == small_ensemble.cpu_hours

    def test_tracks_downhill_reference(self, reduced_model):
        """On the default (downhill) potential, the estimated PMF must fall
        substantially over the window — the basic Fig. 4 sanity check."""
        from repro.smd import PullingProtocol, run_pulling_ensemble

        proto = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                                start_z=-5.0, equilibration_ns=0.05)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=24, seed=3)
        est = estimate_pmf(ens)
        ref = reduced_model.reference_pmf(-5.0 + ens.displacements)
        assert est.values[-1] == pytest.approx(ref[-1], abs=5.0)
        assert est.values[-1] < -50.0


class TestPMFEstimate:
    def make(self):
        d = np.linspace(0, 10, 11)
        return PMFEstimate(d, d**2, kappa_pn=100.0, velocity=12.5,
                           estimator="exponential", n_samples=8, temperature=300.0)

    def test_shape_checked(self):
        with pytest.raises(ConfigurationError):
            PMFEstimate(np.zeros(3), np.zeros(4), 100.0, 12.5, "exponential",
                        8, 300.0)

    def test_interpolation(self):
        est = self.make()
        out = est.interpolated(np.array([2.5]))
        assert out[0] == pytest.approx(6.5)  # linear between 4 and 9

    def test_interpolation_outside_support(self):
        est = self.make()
        with pytest.raises(AnalysisError):
            est.interpolated(np.array([11.0]))

    def test_label(self):
        assert "100" in self.make().label()

