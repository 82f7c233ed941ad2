"""Tests for the implicit solvent model."""

import pytest

from repro.errors import ConfigurationError
from repro.pore import ImplicitSolvent
from repro.units import MASS_TO_KCAL


class TestImplicitSolvent:
    def test_diffusion_constant_order_of_magnitude(self):
        s = ImplicitSolvent()
        # Hydrated nucleotide: tens to hundreds of A^2/ns.
        assert 10.0 < s.diffusion_constant() < 1000.0

    def test_pore_friction_higher(self):
        s = ImplicitSolvent()
        assert s.friction(in_pore=True) > s.friction(in_pore=False)
        assert s.diffusion_constant(in_pore=True) < s.diffusion_constant()

    def test_langevin_rate_consistency(self):
        s = ImplicitSolvent()
        m = 312.0
        gamma = s.langevin_rate(m)
        assert gamma * m * MASS_TO_KCAL == pytest.approx(s.friction(in_pore=True))

    def test_validation(self):
        s = ImplicitSolvent()
        with pytest.raises(ConfigurationError):
            s.langevin_rate(0.0)
