"""Tests for bonded force terms: energies, forces, and gradient consistency."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.md import (
    FENEBondForce,
    HarmonicAngleForce,
    TopologyBuilder,
)


def numerical_forces(force_term, positions, h=1e-6):
    """Central finite-difference forces for gradient checks."""
    pos = positions.copy()
    out = np.zeros_like(pos)
    for i in range(pos.shape[0]):
        for d in range(3):
            pos[i, d] += h
            ep = force_term.compute(pos, np.zeros_like(pos))
            pos[i, d] -= 2 * h
            em = force_term.compute(pos, np.zeros_like(pos))
            pos[i, d] += h
            out[i, d] = -(ep - em) / (2 * h)
    return out


class TestFENEBond:
    def topo(self, k=5.0, rmax=2.0):
        return TopologyBuilder(2).add_bond(0, 1, k, rmax).build()

    def test_energy_increases_toward_rmax(self):
        f = FENEBondForce(self.topo())
        es = []
        for r in (0.5, 1.0, 1.5, 1.9):
            pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, r]])
            es.append(f.compute(pos, np.zeros_like(pos)))
        assert es == sorted(es)

    def test_explodes_beyond_rmax(self):
        f = FENEBondForce(self.topo(rmax=2.0))
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.5]])
        with pytest.raises(SimulationError):
            f.compute(pos, np.zeros_like(pos))

    def test_gradient_consistency(self):
        f = FENEBondForce(self.topo())
        pos = np.array([[0.1, -0.2, 0.0], [0.3, 0.4, 1.2]])
        analytic = np.zeros_like(pos)
        f.compute(pos, analytic)
        np.testing.assert_allclose(analytic, numerical_forces(f, pos), atol=1e-4)

    def test_attractive_everywhere(self):
        # FENE alone is purely attractive (the repulsion comes from WCA).
        f = FENEBondForce(self.topo())
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        forces = np.zeros_like(pos)
        f.compute(pos, forces)
        assert forces[1, 2] < 0

    def test_overlapping_beads_no_nan(self):
        f = FENEBondForce(self.topo())
        pos = np.zeros((2, 3))
        forces = np.zeros_like(pos)
        assert f.compute(pos, forces) == pytest.approx(0.0)
        np.testing.assert_array_equal(forces, 0.0)

    def test_empty_topology_zero_energy(self):
        f = FENEBondForce(TopologyBuilder(2).build())
        assert f.compute(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0

    def test_invalid_rmax(self):
        topo = TopologyBuilder(2).add_bond(0, 1, 1.0, 0.0).build()
        with pytest.raises(ConfigurationError):
            FENEBondForce(topo)


class TestHarmonicAngle:
    def topo(self, k=2.0, theta0=np.pi):
        return TopologyBuilder(3).add_angle(0, 1, 2, k, theta0).build()

    def test_zero_at_reference_angle(self):
        f = HarmonicAngleForce(self.topo(theta0=np.pi))
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        forces = np.zeros_like(pos)
        e = f.compute(pos, forces)
        assert e == pytest.approx(0.0, abs=1e-10)

    def test_bent_configuration_energy(self):
        f = HarmonicAngleForce(self.topo(k=2.0, theta0=np.pi))
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        e = f.compute(pos, np.zeros_like(pos))
        assert e == pytest.approx(0.5 * 2.0 * (np.pi / 2 - np.pi) ** 2)

    def test_gradient_consistency(self):
        f = HarmonicAngleForce(self.topo(k=3.0, theta0=2.0))
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(3, 3))
        analytic = np.zeros_like(pos)
        f.compute(pos, analytic)
        np.testing.assert_allclose(analytic, numerical_forces(f, pos), atol=1e-4)

    def test_net_force_and_torque_free(self):
        f = HarmonicAngleForce(self.topo(k=3.0, theta0=2.5))
        rng = np.random.default_rng(6)
        pos = rng.normal(size=(3, 3))
        forces = np.zeros_like(pos)
        f.compute(pos, forces)
        np.testing.assert_allclose(forces.sum(axis=0), 0.0, atol=1e-10)
        torque = np.cross(pos, forces).sum(axis=0)
        np.testing.assert_allclose(torque, 0.0, atol=1e-9)

    def test_empty_angles(self):
        f = HarmonicAngleForce(TopologyBuilder(3).build())
        assert f.compute(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0
