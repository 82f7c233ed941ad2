"""Tests for the alpha-hemolysin pore geometry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pore import (
    DEFAULT_GEOMETRY,
    AxialLandscape,
    HemolysinPore,
    PoreGeometry,
)


class TestConstruction:
    def test_default_valid(self):
        g = DEFAULT_GEOMETRY
        assert g.length == 100.0

    def test_station_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            PoreGeometry(z_top=-10.0, z_constriction=0.0, z_bottom=10.0)

    def test_constriction_must_be_narrowest(self):
        with pytest.raises(ConfigurationError):
            PoreGeometry(constriction_radius=50.0)

    def test_positive_radii(self):
        with pytest.raises(ConfigurationError):
            PoreGeometry(barrel_radius=-1.0)


class TestRadiusProfile:
    def test_constriction_radius_attained(self):
        g = DEFAULT_GEOMETRY
        assert g.radius(g.z_constriction) == pytest.approx(g.constriction_radius)

    def test_min_radius_is_constriction(self):
        g = DEFAULT_GEOMETRY
        assert g.min_radius() == pytest.approx(g.constriction_radius, rel=1e-3)

    def test_vestibule_wider_than_barrel(self):
        g = DEFAULT_GEOMETRY
        r_top = float(g.radius(g.z_top))
        r_bottom = float(g.radius(g.z_bottom))
        assert r_top > r_bottom

    def test_radius_bounded(self):
        g = DEFAULT_GEOMETRY
        zz = np.linspace(g.z_bottom - 20, g.z_top + 20, 500)
        rr = g.radius(zz)
        assert np.all(rr >= g.constriction_radius - 1e-9)
        assert np.all(rr <= g.vestibule_radius + 1e-9)

    def test_derivative_matches_finite_difference(self):
        g = DEFAULT_GEOMETRY
        zz = np.linspace(g.z_bottom, g.z_top, 400)
        h = 1e-6
        fd = (g.radius(zz + h) - g.radius(zz - h)) / (2 * h)
        np.testing.assert_allclose(g.radius_derivative(zz), fd, atol=1e-6)

    def test_profile_shape(self):
        z, r = DEFAULT_GEOMETRY.radius_profile(101)
        assert z.shape == r.shape == (101,)
        assert z[0] == DEFAULT_GEOMETRY.z_bottom
        assert z[-1] == DEFAULT_GEOMETRY.z_top

    def test_profile_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_GEOMETRY.radius_profile(1)


class TestSevenfold:
    def test_wall_radius_modulation(self):
        """At the seven symmetry stations (cos 7 phi = 1) the wall sits
        ``sevenfold_amplitude`` beyond the axisymmetric radius: a bead just
        inside it feels no wall, one just beyond does."""
        pore = HemolysinPore()
        pore.landscape = AxialLandscape([])
        g = pore.geometry
        r_wall = g.radius(0.0) + g.sevenfold_amplitude
        for phi in np.linspace(0, 2 * np.pi, 7, endpoint=False):
            for r, touching in ((r_wall - 0.05, False), (r_wall + 0.05, True)):
                pos = np.array([[r * np.cos(phi), r * np.sin(phi), 0.0]])
                assert bool(pore.energy_and_forces(pos)[0] > 1e-6) is touching

    def test_sevenfold_periodicity(self):
        pore = HemolysinPore()
        r = pore.geometry.radius(5.0) + 0.5
        energies = []
        for phi in (0.3, 0.3 + 2 * np.pi / 7):
            pos = np.array([[r * np.cos(phi), r * np.sin(phi), 5.0]])
            energies.append(pore.energy_and_forces(pos)[0])
        assert energies[0] == pytest.approx(energies[1], rel=1e-9)
