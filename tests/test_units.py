"""Unit-system and constant tests."""

import numpy as np
import pytest

from repro import units
from repro.md import ParticleSystem


class TestConstants:
    def test_kb_value(self):
        assert units.KB == pytest.approx(0.0019872, rel=1e-4)

    def test_kT_room_temperature(self):
        # ~0.596 kcal/mol at 300 K.
        assert units.kT() == pytest.approx(0.5962, rel=1e-3)

    def test_beta_inverse_of_kT(self):
        assert units.beta() * units.kT() == pytest.approx(1.0)



class TestSpringConstantConversion:
    def test_100_pn_per_angstrom(self):
        # 100 pN/A = 1.4393 kcal/mol/A^2 (the paper's tradeoff value).
        assert units.pn_per_angstrom(100.0) == pytest.approx(1.4393, rel=1e-3)

    def test_roundtrip(self):
        for k in (10.0, 100.0, 1000.0):
            internal = units.pn_per_angstrom(k)
            assert internal / units.PN_ANGSTROM_TO_KCAL == pytest.approx(k)

    def test_zero_allowed_negative_rejected(self):
        assert units.pn_per_angstrom(0.0) == 0.0
        with pytest.raises(ValueError):
            units.pn_per_angstrom(-1.0)

    def test_pn_angstrom_work_unit(self):
        # 1 pN*A ~= 0.0144 kcal/mol, i.e. ~69.5 pN*A per kcal/mol.
        assert 1.0 / units.PN_ANGSTROM_TO_KCAL == pytest.approx(69.48, rel=1e-3)


def thermal_velocities(mass_amu, temperature=300.0, n=20000, seed=0):
    """Maxwell-Boltzmann velocity components as the engine draws them."""
    system = ParticleSystem(np.zeros((n, 3)), np.full(n, mass_amu))
    system.initialize_velocities(temperature, seed=seed)
    return system


class TestMassConversion:
    def test_kinetic_energy_scale(self):
        # sigma_v = sqrt(kT / (m MASS_TO_KCAL)) puts 0.5 kT in each component.
        system = thermal_velocities(12.0)
        ke = system.kinetic_energy() / (3 * system.n)
        assert ke == pytest.approx(0.5 * units.kT(), rel=0.02)

    def test_thermal_velocity_magnitude(self):
        # Carbon-mass bead at 300 K: a few thousand A/ns (hundreds m/s).
        v = thermal_velocities(12.0).velocities.std()
        assert 2000.0 < v < 10000.0

    def test_thermal_velocity_mass_scaling(self):
        light = thermal_velocities(4.0, seed=1).velocities.std()
        heavy = thermal_velocities(16.0, seed=2).velocities.std()
        assert light == pytest.approx(2.0 * heavy, rel=0.02)


class TestTimestep:
    def test_femtoseconds(self):
        assert units.timestep_fs(2.0) == pytest.approx(2.0e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.timestep_fs(0.0)
