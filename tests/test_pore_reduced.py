"""Tests for the reduced 1-D translocation model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pore import (
    AxialLandscape,
    ReducedTranslocationModel,
    TabulatedPotential1D,
    default_reduced_potential,
)
from repro.units import KB


class TestConstruction:
    def test_defaults(self, reduced_model):
        assert reduced_model.diffusion_constant > 0
        assert reduced_model.kT == pytest.approx(KB * 300.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReducedTranslocationModel(default_reduced_potential(), friction=0.0)
        with pytest.raises(ConfigurationError):
            ReducedTranslocationModel(default_reduced_potential(), temperature=-5.0)


class TestPotentialLeadingAxisContract:
    """``Potential1D``: an ``(n, 1)`` column keeps its shape and each row
    has the bits of that coordinate evaluated alone — what lets the engine
    step a stack of one-replica pulls in one call."""

    @pytest.mark.parametrize("potential", [
        default_reduced_potential(),
        TabulatedPotential1D.from_callable(
            default_reduced_potential().value, -8.0, 16.0),
    ], ids=["axial-landscape", "tabulated"])
    def test_column_rows_equal_their_solo_call(self, potential):
        z = np.random.default_rng(24).uniform(-6.0, 14.0, 12800)
        column = potential.derivative(z[:, None])
        assert column.shape == (z.size, 1)
        solo = np.array([potential.derivative(z[i:i + 1])[0]
                         for i in range(z.size)])
        np.testing.assert_array_equal(column[:, 0], solo)


class TestTimestep:
    def test_stable_timestep_scaling(self, reduced_model):
        assert reduced_model.stable_timestep(10.0) == pytest.approx(
            0.1 * reduced_model.friction / 10.0
        )
        with pytest.raises(ConfigurationError):
            reduced_model.stable_timestep(0.0)

    def test_max_curvature_flat_potential(self):
        m = ReducedTranslocationModel(AxialLandscape([], tilt=-1.0))
        assert m.max_curvature(-5.0, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_max_curvature_gaussian(self):
        # Peak curvature of A exp(-z^2/2w^2) is A/w^2 at the centre.
        m = ReducedTranslocationModel(AxialLandscape([(4.0, 0.0, 2.0)]))
        assert m.max_curvature(-8.0, 8.0) == pytest.approx(1.0, rel=0.05)

    def test_max_curvature_bad_range(self, reduced_model):
        with pytest.raises(ConfigurationError):
            reduced_model.max_curvature(5.0, 5.0)


class TestDynamics:
    def test_trap_confines(self):
        m = ReducedTranslocationModel(AxialLandscape([]))
        rng = np.random.default_rng(0)
        z = np.zeros(2000)
        kappa = 1.44  # ~100 pN/A
        dt = m.stable_timestep(kappa)
        for _ in range(4000):
            m.step_ensemble(z, dt, rng, spring_kappa=kappa, spring_center=0.0)
        # Variance should match kT/kappa.
        assert z.var() == pytest.approx(m.kT / kappa, rel=0.1)

    def test_drift_under_tilt(self):
        m = ReducedTranslocationModel(AxialLandscape([], tilt=-2.0))
        rng = np.random.default_rng(1)
        z = np.zeros(500)
        dt = 1e-4
        n = 2000
        for _ in range(n):
            m.step_ensemble(z, dt, rng)
        # Mean drift = F/zeta * t = 2/friction * t.
        expected = 2.0 / m.friction * dt * n
        assert z.mean() == pytest.approx(expected, rel=0.1)

    def test_equilibrate_spread(self, reduced_model):
        kappa = 14.4
        z = reduced_model.equilibrate(
            3000, spring_kappa=kappa, spring_center=-5.0, dt=1e-5,
            time_ns=0.02, seed=3,
        )
        # The tilted landscape shifts the trap equilibrium by -U'(c)/kappa.
        slope = float(reduced_model.potential.derivative(-5.0))
        assert z.mean() == pytest.approx(-5.0 - slope / kappa, abs=0.3)
        # Spread near trap thermal width (potential adds some curvature).
        assert z.std() == pytest.approx(np.sqrt(reduced_model.kT / kappa), rel=0.4)

    def test_equilibrate_validation(self, reduced_model):
        with pytest.raises(ConfigurationError):
            reduced_model.equilibrate(0, 1.0, 0.0, 1e-4, 0.01)
        with pytest.raises(ConfigurationError):
            reduced_model.equilibrate(5, 1.0, 0.0, 1e-4, -1.0)


class TestReference:
    def test_reference_pmf_zeroed(self, reduced_model):
        grid = np.linspace(-5, 5, 21)
        pmf = reduced_model.reference_pmf(grid)
        assert pmf[0] == 0.0

    def test_reference_pmf_unzeroed(self, reduced_model):
        grid = np.linspace(-5, 5, 21)
        pmf = reduced_model.reference_pmf(grid, zero_at_start=False)
        np.testing.assert_allclose(pmf, reduced_model.potential.value(grid))

    def test_boltzmann_sampler_distribution(self):
        # Samples on a double-well grid follow exp(-U/kT).
        land = AxialLandscape([(-2.0, -1.0, 0.5), (-2.0, 1.0, 0.5)])
        m = ReducedTranslocationModel(land)
        grid = np.linspace(-3, 3, 301)
        s = m.boltzmann_sample(grid, 20000, seed=4)
        # Both wells populated, barrier region depleted.
        left = np.mean((s > -1.5) & (s < -0.5))
        mid = np.mean((s > -0.3) & (s < 0.3))
        assert left > 2 * mid
