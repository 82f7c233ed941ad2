"""Integration tests: SMD-JE physics validated against exactly solvable
cases — the scientific core of the reproduction."""

import numpy as np

from repro.core import estimate_pmf
from repro.pore import AxialLandscape, ReducedTranslocationModel
from repro.smd import (
    PullingProtocol,
    plan_subtrajectories,
    run_pulling_ensemble,
    stitch_pmfs,
)


class TestHarmonicExactness:
    """Pulling a particle between two harmonic wells has a closed-form
    free-energy profile: for a pure trap on a flat landscape the free energy
    along lambda is constant, so JE must return ~0 everywhere."""

    def test_flat_landscape_zero_pmf(self):
        model = ReducedTranslocationModel(AxialLandscape([]), friction=0.004)
        proto = PullingProtocol(kappa_pn=100.0, velocity=25.0, distance=10.0,
                                equilibration_ns=0.05)
        ens = run_pulling_ensemble(model, proto, n_samples=96, seed=11,
                                   force_sample_time=None)
        est = estimate_pmf(ens)
        assert np.abs(est.values).max() < 0.8  # ~kT accuracy

    def test_linear_landscape_recovered(self):
        """On U = s z the PMF along the pull is s * displacement exactly
        (trap convolution only shifts by a constant)."""
        s = -3.0
        model = ReducedTranslocationModel(AxialLandscape([], tilt=s),
                                          friction=0.004)
        proto = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                                equilibration_ns=0.05)
        ens = run_pulling_ensemble(model, proto, n_samples=96, seed=12,
                                   force_sample_time=None)
        est = estimate_pmf(ens)
        np.testing.assert_allclose(est.values, s * est.displacements, atol=1.0)

    def test_gaussian_barrier_shape(self):
        """A single small barrier: slow stiff-spring pulls recover its height
        within ~1 kcal/mol."""
        land = AxialLandscape([(2.5, 5.0, 1.5)])
        model = ReducedTranslocationModel(land, friction=0.004)
        proto = PullingProtocol(kappa_pn=400.0, velocity=12.5, distance=10.0,
                                start_z=0.0, equilibration_ns=0.05)
        ens = run_pulling_ensemble(model, proto, n_samples=96, seed=13,
                                   force_sample_time=None)
        est = estimate_pmf(ens)
        ref = land.value(est.displacements) - land.value(0.0)
        assert np.abs(est.values - ref).max() < 1.2


class TestEstimatorHierarchy:
    def test_exponential_beats_mean_work_as_estimate(self, reduced_model):
        """The naive mean work over-estimates the PMF by the dissipation;
        JE removes (most of) it."""
        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0, distance=10.0,
                                start_z=-5.0, equilibration_ns=0.05)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=64, seed=14,
                                   force_sample_time=None)
        ref = reduced_model.reference_pmf(-5.0 + ens.displacements)
        final_ref = ref[-1]
        je = estimate_pmf(ens, "exponential").values[-1]
        naive = float(ens.final_works().mean())
        assert abs(je - final_ref) < abs(naive - final_ref)

    def test_cumulant_close_to_exponential_for_gaussian_work(self, reduced_model):
        proto = PullingProtocol(kappa_pn=100.0, velocity=25.0, distance=10.0,
                                start_z=-5.0, equilibration_ns=0.05)
        ens = run_pulling_ensemble(reduced_model, proto, n_samples=64, seed=15,
                                   force_sample_time=None)
        e1 = estimate_pmf(ens, estimator="exponential").values
        e2 = estimate_pmf(ens, estimator="cumulant").values
        assert np.abs(e1 - e2).max() < 1.5


class TestSubTrajectoryDecomposition:
    def test_stitched_windows_match_single_long_pull(self, reduced_model):
        """Section IV-A: sub-trajectory decomposition reproduces the long
        PMF while each window starts freshly equilibrated."""
        base = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                               start_z=-5.0, equilibration_ns=0.05)
        plan = plan_subtrajectories(base, total_distance=10.0, window=5.0)
        disps, pmfs, starts = [], [], []
        for i, proto in enumerate(plan.protocols):
            ens = run_pulling_ensemble(reduced_model, proto, n_samples=48,
                                       seed=100 + i, force_sample_time=None)
            est = estimate_pmf(ens)
            disps.append(est.displacements)
            pmfs.append(est.values)
            starts.append(proto.start_z)
        z, stitched = stitch_pmfs(disps, pmfs, starts)
        ref = reduced_model.reference_pmf(z)
        assert np.abs(stitched - ref).max() < 2.5

    def test_error_grows_with_window_length(self, reduced_model):
        """Errors accumulate along a pull: a long window deviates more at
        its far end than a short window does at its own far end (scaled)."""
        errors = {}
        for dist in (5.0, 20.0):
            proto = PullingProtocol(kappa_pn=100.0, velocity=100.0,
                                    distance=dist, start_z=-5.0,
                                    equilibration_ns=0.05)
            ens = run_pulling_ensemble(reduced_model, proto, n_samples=24,
                                       seed=16)
            est = estimate_pmf(ens)
            ref = reduced_model.reference_pmf(-5.0 + ens.displacements)
            errors[dist] = abs(est.values[-1] - ref[-1])
        assert errors[20.0] > errors[5.0]
