"""Tests for the WorkEnsemble container."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.smd import PullingProtocol, WorkEnsemble


def make_ensemble(m=8, g=5, seed=0, cpu_hours=10.0, velocity=10.0):
    rng = np.random.default_rng(seed)
    proto = PullingProtocol(kappa_pn=100.0, velocity=velocity, distance=4.0, start_z=0.0)
    disp = np.linspace(0, 4.0, g)
    works = np.cumsum(np.abs(rng.normal(size=(m, g))), axis=1)
    works[:, 0] = 0.0
    positions = disp[None, :] + rng.normal(scale=0.1, size=(m, g))
    return WorkEnsemble(proto, disp, works, positions, temperature=300.0,
                        cpu_hours=cpu_hours)


class TestValidation:
    def test_shapes_enforced(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0)
        with pytest.raises(ConfigurationError):
            WorkEnsemble(proto, np.linspace(0, 1, 3), np.zeros((4, 2)),
                         np.zeros((4, 3)), 300.0)

    def test_monotone_displacements(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0)
        with pytest.raises(ConfigurationError):
            WorkEnsemble(proto, np.array([0.0, 2.0, 1.0]), np.zeros((2, 3)),
                         np.zeros((2, 3)), 300.0)

    def test_needs_two_records(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0)
        with pytest.raises(ConfigurationError):
            WorkEnsemble(proto, np.array([0.0]), np.zeros((2, 1)),
                         np.zeros((2, 1)), 300.0)

    def test_positive_temperature(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0)
        with pytest.raises(ConfigurationError):
            WorkEnsemble(proto, np.array([0.0, 1.0]), np.zeros((2, 2)),
                         np.zeros((2, 2)), -1.0)


class TestAccessors:
    def test_counts(self):
        e = make_ensemble(m=8, g=5)
        assert e.n_samples == 8
        assert e.n_records == 5

    def test_final_and_mean_work(self):
        e = make_ensemble()
        np.testing.assert_array_equal(e.final_works(), e.works[:, -1])
        np.testing.assert_allclose(e.mean_work(), e.works.mean(axis=0))

    def test_dissipated_width_in_kT(self):
        e = make_ensemble()
        from repro.units import KB

        expected = e.final_works().std(ddof=1) / (KB * 300.0)
        assert e.dissipated_width() == pytest.approx(expected)

    def test_coordinate_lag_shape(self):
        e = make_ensemble(g=5)
        assert e.coordinate_lag().shape == (5,)


class TestSubsetAndMerge:
    def test_merge(self):
        a = make_ensemble(m=4, seed=1, cpu_hours=10.0)
        b = make_ensemble(m=6, seed=2, cpu_hours=20.0)
        m = a.merged_with(b)
        assert m.n_samples == 10
        assert m.cpu_hours == pytest.approx(30.0)

    def test_merge_protocol_mismatch(self):
        a = make_ensemble(velocity=10.0)
        b = make_ensemble(velocity=20.0)
        with pytest.raises(AnalysisError):
            a.merged_with(b)
