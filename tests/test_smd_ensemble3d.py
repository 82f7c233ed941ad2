"""Tests for the 3-D SMD ensemble runner and its consistency with the
reduced model's machinery."""

import numpy as np
import pytest

from repro.core import estimate_pmf
from repro.errors import ConfigurationError
from repro.smd import PullingProtocol, run_pulling_ensemble_3d


@pytest.fixture(scope="module")
def small_3d_ensemble():
    proto = PullingProtocol(kappa_pn=800.0, velocity=1000.0, distance=15.0,
                            start_z=0.0, equilibration_ns=2e-4)
    return run_pulling_ensemble_3d(proto, n_samples=4, n_bases=6,
                                   n_records=11, start_com_z=30.0, seed=5)


class TestEnsemble3D:
    def test_work_ensemble_format(self, small_3d_ensemble):
        ens = small_3d_ensemble
        assert ens.works.shape == (4, 11)
        assert ens.positions.shape == (4, 11)
        assert ens.displacements[0] == 0.0
        assert ens.displacements[-1] == pytest.approx(15.0)
        np.testing.assert_allclose(ens.works[:, 0], 0.0, atol=1e-9)

    def test_replicas_independent(self, small_3d_ensemble):
        w = small_3d_ensemble.final_works()
        assert np.unique(w).size == w.size  # all distinct trajectories

    def test_estimators_apply(self, small_3d_ensemble):
        est = estimate_pmf(small_3d_ensemble)
        assert est.values.shape == (11,)
        assert np.all(np.isfinite(est.values))

    def test_work_positive_dragging_through_fluid(self, small_3d_ensemble):
        # A fast pull against implicit-solvent drag is dissipative.
        assert small_3d_ensemble.final_works().mean() > 0.0

    def test_coordinate_moves_with_trap(self, small_3d_ensemble):
        ens = small_3d_ensemble
        moved = ens.positions[:, -1] - ens.positions[:, 0]
        assert np.all(moved > 5.0)

    def test_cpu_accounting(self, small_3d_ensemble):
        ens = small_3d_ensemble
        per_rep = 15.0 / 1000.0 + 2e-4
        assert ens.cpu_hours == pytest.approx(4 * per_rep * 3000.0, rel=0.01)

    def test_deterministic(self):
        proto = PullingProtocol(kappa_pn=800.0, velocity=2000.0, distance=6.0,
                                start_z=0.0, equilibration_ns=1e-4)
        a = run_pulling_ensemble_3d(proto, n_samples=2, n_bases=5, seed=9)
        b = run_pulling_ensemble_3d(proto, n_samples=2, n_bases=5, seed=9)
        np.testing.assert_array_equal(a.works, b.works)

    def test_validation(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0)
        with pytest.raises(ConfigurationError):
            run_pulling_ensemble_3d(proto, n_samples=0)
        with pytest.raises(ConfigurationError):
            run_pulling_ensemble_3d(proto, n_samples=2, n_records=1)
