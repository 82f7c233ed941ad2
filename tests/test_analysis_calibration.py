"""Tests for trajectory-based calibration (MSD, friction extraction)."""

import numpy as np
import pytest

from repro.analysis.calibration import CALIBRATION_BASES
from repro.analysis import (
    calibrate_reduced_friction,
    estimate_diffusion,
    estimate_friction,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.units import KB


class TestEstimateDiffusion:
    def test_known_brownian_motion(self):
        """Free Brownian particles: MSD estimator recovers kT/zeta."""
        n, zeta, dt = 400, 0.01, 1e-4
        D = KB * 300.0 / zeta
        # An overdamped free walk, x += sqrt(2 D dt) xi, sampled every 10 steps.
        rng = np.random.default_rng(1)
        steps = np.sqrt(2.0 * D * dt) * rng.standard_normal((2000, n, 3))
        X = np.cumsum(steps, axis=0)[9::10]  # (frames, n, 3)
        t = dt * np.arange(10, 2001, 10)
        # Average the per-particle 3-D estimate over many particles.
        Ds = [estimate_diffusion(t, X[:, i, :]) for i in range(50)]
        assert np.mean(Ds) == pytest.approx(D, rel=0.15)

    def test_deterministic_ballistic_rejected_shape(self):
        with pytest.raises(AnalysisError):
            estimate_diffusion(np.arange(5.0), np.arange(6.0))

    def test_too_short(self):
        with pytest.raises(AnalysisError):
            estimate_diffusion(np.arange(5.0), np.arange(5.0))

    def test_zero_motion_gives_zero(self):
        t = np.linspace(0, 1, 50)
        assert estimate_diffusion(t, np.zeros(50)) == pytest.approx(0.0)


class TestEstimateFriction:
    def test_einstein_relation(self):
        D = 50.0
        zeta = estimate_friction(D)
        assert zeta == pytest.approx(KB * 300.0 / D)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_friction(0.0)


class TestChainCalibration:
    def test_chain_com_friction_decomposes_per_bead(self):
        """Measured chain-COM friction ~ n_beads x per-bead drag (the
        implicit-solvent value), within the statistics of one short run."""
        from repro.pore import ImplicitSolvent

        D, zeta = calibrate_reduced_friction()
        per_bead = zeta / CALIBRATION_BASES
        expected = ImplicitSolvent().friction(in_pore=True)
        # Order-of-magnitude agreement (single trajectory, finite length).
        assert expected / 3 < per_bead < expected * 3
