"""Tests for the hemolysin pore potential."""

from dataclasses import replace

import numpy as np
import pytest

from repro.pore import DEFAULT_GEOMETRY, AxialLandscape, HemolysinPore

#: The default pore's radius profile without the heptamer modulation.
AXISYMMETRIC = replace(DEFAULT_GEOMETRY, sevenfold_amplitude=0.0)


def numerical_forces(pore, positions, h=1e-6):
    pos = positions.copy()
    out = np.zeros_like(pos)
    for i in range(pos.shape[0]):
        for d in range(3):
            pos[i, d] += h
            ep, _ = pore.energy_and_forces(pos)
            pos[i, d] -= 2 * h
            em, _ = pore.energy_and_forces(pos)
            pos[i, d] += h
            out[i, d] = -(ep - em) / (2 * h)
    return out


class TestWall:
    def test_no_force_on_axis(self):
        pore = HemolysinPore()
        pos = np.array([[0.0, 0.0, 0.0]])
        e, f = pore.energy_and_forces(pos)
        np.testing.assert_allclose(f[0, :2], 0.0, atol=1e-9)

    def test_wall_pushes_inward(self):
        pore = HemolysinPore(AXISYMMETRIC)
        # At z=0 the wall radius is 7; put a bead at r=9.
        pos = np.array([[9.0, 0.0, 0.0]])
        e, f = pore.energy_and_forces(pos)
        assert e > 0
        assert f[0, 0] < 0  # radially inward

    def test_inside_lumen_no_wall_energy(self):
        pore = HemolysinPore(AXISYMMETRIC)
        pore.landscape = AxialLandscape([])
        pos = np.array([[2.0, 0.0, 0.0]])
        e, f = pore.energy_and_forces(pos)
        assert e == pytest.approx(0.0, abs=1e-9)

    def test_outside_pore_axially_no_wall(self):
        pore = HemolysinPore(AXISYMMETRIC)
        pore.landscape = AxialLandscape([])
        g = pore.geometry
        pos = np.array([[30.0, 0.0, g.z_top + 20.0]])
        e, _ = pore.energy_and_forces(pos)
        # The smooth axial envelope leaves an exponentially small tail.
        assert e == pytest.approx(0.0, abs=0.05)

    def test_sevenfold_angular_force(self):
        pore = HemolysinPore()
        g = pore.geometry
        # A bead pressed into the wall off a symmetry axis feels torque.
        phi = np.pi / 5
        r = g.radius(0.0) + 1.5
        pos = np.array([[r * np.cos(phi), r * np.sin(phi), 0.0]])
        _, f = pore.energy_and_forces(pos)
        # Tangential component non-zero.
        t_dir = np.array([-np.sin(phi), np.cos(phi), 0.0])
        assert abs(f[0] @ t_dir) > 1e-6


class TestGradientExactness:
    @pytest.mark.parametrize("sevenfold", [False, True])
    def test_forces_match_energy_gradient(self, sevenfold):
        pore = HemolysinPore(DEFAULT_GEOMETRY if sevenfold else AXISYMMETRIC)
        rng = np.random.default_rng(11)
        # Sample points inside, near the wall, and outside.
        pos = np.vstack(
            [
                rng.uniform(-4, 4, size=(4, 3)),
                np.array([[8.5, 0.5, 0.0], [0.0, 9.5, -5.0]]),
                np.array([[15.0, 0.0, 30.0]]),
            ]
        )
        _, analytic = pore.energy_and_forces(pos)
        num = numerical_forces(pore, pos)
        np.testing.assert_allclose(analytic, num, atol=1e-4)


class TestAxialPotential:
    def test_on_axis_matches_landscape_inside(self):
        land = AxialLandscape([(2.0, 0.0, 5.0)])
        pore = HemolysinPore()
        pore.landscape = land
        # On axis the radial envelope is sigmoid(R/w): ~0.97 at the
        # constriction (R=7, w=2), closer to 1 elsewhere.
        assert pore.axial_potential(0.0) == pytest.approx(land.value(0.0), rel=0.05)
        assert pore.axial_potential(-20.0) == pytest.approx(land.value(-20.0), rel=0.01)

    def test_vanishes_outside(self):
        pore = HemolysinPore()
        g = pore.geometry
        assert abs(pore.axial_potential(g.z_top + 30.0)) < 1e-4

    def test_array_input(self):
        pore = HemolysinPore()
        out = pore.axial_potential(np.linspace(-20, 20, 5))
        assert out.shape == (5,)


class TestDescribe:
    def test_structure_summary(self):
        pore = HemolysinPore()
        d = pore.describe()
        assert d["symmetry_order"] == 7
        assert d["constriction_z"] == pytest.approx(0.0, abs=0.5)
        assert d["min_radius"] == pytest.approx(7.0, rel=0.01)
        assert d["length"] == 100.0
        assert HemolysinPore(AXISYMMETRIC).describe()["symmetry_order"] == 1
