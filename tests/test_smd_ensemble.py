"""Tests for the vectorized pulling-ensemble runner — including the physics
validations that anchor the Fig. 4 reproduction."""

import numpy as np
import pytest

from repro.core import estimate_pmf
from repro.errors import ConfigurationError
from repro.pore import AxialLandscape, ReducedTranslocationModel
from repro.smd import PullingProtocol, run_pulling_ensemble


class TestMechanics:
    def test_shapes_and_grid(self, reduced_model):
        proto = PullingProtocol(kappa_pn=100.0, velocity=50.0, distance=5.0,
                                start_z=-2.5, equilibration_ns=0.01)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=6,
                                   n_records=11, seed=1)
        assert ens.works.shape == (6, 11)
        assert ens.positions.shape == (6, 11)
        assert ens.displacements[0] == 0.0
        assert ens.displacements[-1] == pytest.approx(5.0)
        np.testing.assert_array_equal(ens.works[:, 0], 0.0)

    def test_deterministic(self, reduced_model):
        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0, distance=3.0,
                                equilibration_ns=0.005)
        a = run_pulling_ensemble(reduced_model, proto, n_samples=4, seed=9)
        b = run_pulling_ensemble(reduced_model, proto, n_samples=4, seed=9)
        np.testing.assert_array_equal(a.works, b.works)

    def test_cpu_hours_scaling(self, reduced_model):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0, distance=5.0,
                                equilibration_ns=0.0)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=3, seed=2)
        # 3 samples x 0.5 ns x 3000 CPU-h/ns.
        assert ens.cpu_hours == pytest.approx(3 * 0.5 * 3000.0)

    def test_validation(self, reduced_model):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0)
        with pytest.raises(ConfigurationError):
            run_pulling_ensemble(reduced_model, proto, n_samples=0)
        with pytest.raises(ConfigurationError):
            run_pulling_ensemble(reduced_model, proto, n_samples=2, n_records=1)
        with pytest.raises(ConfigurationError):
            run_pulling_ensemble(reduced_model, proto, n_samples=2,
                                 force_sample_time=-1.0)


class TestPhysics:
    def test_flat_potential_drag_work(self):
        """On a flat potential the mean work is pure drag: zeta * v * L."""
        model = ReducedTranslocationModel(AxialLandscape([]), friction=0.004)
        proto = PullingProtocol(kappa_pn=100.0, velocity=50.0, distance=10.0,
                                equilibration_ns=0.02)
        ens = run_pulling_ensemble(model, proto, n_samples=64, seed=3,
                                   force_sample_time=None)
        expected = model.friction * proto.velocity * proto.distance
        assert ens.mean_work().mean() >= 0  # sanity
        assert ens.final_works().mean() == pytest.approx(expected, rel=0.25)

    def test_jarzynski_recovers_flat_free_energy(self):
        """JE on the flat potential: DeltaF = 0 despite positive mean work."""
        model = ReducedTranslocationModel(AxialLandscape([]), friction=0.004)
        proto = PullingProtocol(kappa_pn=100.0, velocity=25.0, distance=8.0,
                                equilibration_ns=0.02)
        ens = run_pulling_ensemble(model, proto, n_samples=128, seed=4,
                                   force_sample_time=None)
        dF = estimate_pmf(ens, "exponential").values[-1]
        assert abs(dF) < 0.5  # within ~kT of zero
        assert ens.final_works().mean() > 0.5  # while mean work is clearly positive

    def test_slower_pull_less_dissipation(self, reduced_model):
        works = {}
        for v in (12.5, 100.0):
            proto = PullingProtocol(kappa_pn=100.0, velocity=v, distance=10.0,
                                    start_z=-5.0, equilibration_ns=0.02)
            ens = run_pulling_ensemble(reduced_model, proto, n_samples=32,
                                       seed=5, force_sample_time=None)
            ref = reduced_model.reference_pmf(-5.0 + ens.displacements)
            works[v] = ens.final_works().mean() - (ref[-1] - ref[0])
        assert works[12.5] < works[100.0]

    def test_sampled_force_noise_grows_with_kappa(self, reduced_model):
        """The paper's kappa=1000 noise: sampled-force work variance ~ kappa."""
        stds = {}
        for kappa in (10.0, 1000.0):
            proto = PullingProtocol(kappa_pn=kappa, velocity=50.0, distance=10.0,
                                    start_z=-5.0, equilibration_ns=0.02)
            ens = run_pulling_ensemble(reduced_model, proto, n_samples=32, seed=6)
            stds[kappa] = ens.final_works().std(ddof=1)
        assert stds[1000.0] > 1.5 * stds[10.0]

    def test_soft_spring_coordinate_lag(self, reduced_model):
        """kappa = 10 pN/A barely couples: the coordinate sits ~|U'|/kappa
        (tens of A) away from the trap — here *ahead*, carried downhill by
        the tilt — the paper's 'almost un-coupled' regime."""
        proto = PullingProtocol(kappa_pn=10.0, velocity=25.0, distance=10.0,
                                start_z=-5.0, equilibration_ns=0.05)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=16, seed=7)
        lag = ens.coordinate_lag()
        assert abs(lag[-1]) > 3.0

    def test_stiff_spring_tracks_trap(self, reduced_model):
        proto = PullingProtocol(kappa_pn=1000.0, velocity=25.0, distance=10.0,
                                start_z=-5.0, equilibration_ns=0.02)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=16, seed=8)
        assert abs(ens.coordinate_lag()[-1]) < 1.5

    def test_work_profile_monotone_in_records(self, reduced_model):
        """Downhill landscape: work is NOT monotone, but record alignment is:
        displacements strictly increase and each column is later in time."""
        proto = PullingProtocol(kappa_pn=100.0, velocity=50.0, distance=10.0,
                                start_z=-5.0, equilibration_ns=0.01)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=8, seed=9)
        assert np.all(np.diff(ens.displacements) > 0)

    def test_exact_vs_sampled_work_agree_on_average(self, reduced_model):
        proto = PullingProtocol(kappa_pn=100.0, velocity=50.0, distance=8.0,
                                start_z=-4.0, equilibration_ns=0.02)
        exact = run_pulling_ensemble(reduced_model, proto, n_samples=64,
                                     seed=10, force_sample_time=None)
        sampled = run_pulling_ensemble(reduced_model, proto, n_samples=64,
                                       seed=10)
        assert sampled.final_works().mean() == pytest.approx(
            exact.final_works().mean(), abs=1.0
        )
