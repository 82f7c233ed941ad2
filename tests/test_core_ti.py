"""Tests for thermodynamic integration (the paper's named extension)."""

import numpy as np
import pytest

from repro.core import TIProtocol, run_thermodynamic_integration
from repro.errors import ConfigurationError
from repro.pore import AxialLandscape, ReducedTranslocationModel


class TestTIProtocol:
    def test_stations_grid(self):
        p = TIProtocol(start_z=-5.0, distance=10.0, n_stations=11)
        assert p.stations.size == 11
        assert p.stations[0] == -5.0
        assert p.stations[-1] == 5.0

    def test_total_time(self):
        p = TIProtocol(n_stations=10, sampling_ns=0.1, equilibration_ns=0.02)
        assert p.total_time_ns == pytest.approx(1.2)

    @pytest.mark.parametrize("bad", [
        dict(equilibration_ns=-1.0),
        dict(distance=-1.0),
        dict(n_stations=1),
        dict(sampling_ns=0.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            TIProtocol(**bad)


class TestRunTI:
    def test_linear_potential_exact(self):
        """On U = s z, TI must recover the slope essentially exactly."""
        s = -4.0
        model = ReducedTranslocationModel(AxialLandscape([], tilt=s),
                                          friction=0.004)
        res = run_thermodynamic_integration(
            model, TIProtocol(start_z=0.0, distance=8.0, n_stations=9,
                              sampling_ns=0.05),
            n_replicas=8, seed=1)
        np.testing.assert_allclose(res.mean_forces, s, atol=0.3)
        np.testing.assert_allclose(
            res.pmf.values, s * res.pmf.displacements, atol=0.5)

    def test_recovers_reference_pmf(self, reduced_model):
        res = run_thermodynamic_integration(
            reduced_model, TIProtocol(), n_replicas=12, seed=5)
        ref = reduced_model.reference_pmf(res.mean_positions,
                                          zero_at_start=False)
        ref = ref - ref[0]
        assert np.abs(res.pmf.values - ref).max() < 1.0

    def test_no_irreversibility_bias(self, reduced_model):
        """TI has no pulling: its end-point estimate is unbiased where a
        fast JE pull is biased upward."""
        from repro.core import estimate_pmf
        from repro.smd import PullingProtocol, run_pulling_ensemble

        ti = run_thermodynamic_integration(reduced_model, TIProtocol(),
                                           n_replicas=12, seed=6)
        ref_drop = (reduced_model.potential.value(ti.mean_positions[-1])
                    - reduced_model.potential.value(ti.mean_positions[0]))
        ti_err = abs(ti.pmf.values[-1] - ref_drop)

        fast = PullingProtocol(kappa_pn=1000.0, velocity=100.0, distance=10.0,
                               start_z=-5.0, equilibration_ns=0.05)
        ens = run_pulling_ensemble(reduced_model, fast, n_samples=12, seed=6)
        je = estimate_pmf(ens)
        ref = reduced_model.reference_pmf(-5.0 + ens.displacements)
        je_err = abs(je.values[-1] - ref[-1])
        assert ti_err < je_err

    def test_pmf_estimate_integration(self, reduced_model):
        res = run_thermodynamic_integration(reduced_model, TIProtocol(),
                                            n_replicas=8, seed=7)
        # Downstream compatibility: it IS a PMFEstimate.
        assert res.pmf.estimator == "thermodynamic-integration"
        assert res.pmf.values[0] == 0.0
        assert res.pmf.cpu_hours > 0

    def test_error_bars_shrink_with_sampling(self, reduced_model):
        short = run_thermodynamic_integration(
            reduced_model, TIProtocol(sampling_ns=0.02, n_stations=5),
            n_replicas=8, seed=8)
        long = run_thermodynamic_integration(
            reduced_model, TIProtocol(sampling_ns=0.2, n_stations=5),
            n_replicas=8, seed=8)
        assert long.force_errors.mean() < short.force_errors.mean()

    def test_replica_validation(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_thermodynamic_integration(reduced_model, TIProtocol(),
                                          n_replicas=1)

    def test_deterministic(self, reduced_model):
        a = run_thermodynamic_integration(
            reduced_model, TIProtocol(n_stations=5, sampling_ns=0.02),
            n_replicas=4, seed=9)
        b = run_thermodynamic_integration(
            reduced_model, TIProtocol(n_stations=5, sampling_ns=0.02),
            n_replicas=4, seed=9)
        np.testing.assert_array_equal(a.pmf.values, b.pmf.values)
