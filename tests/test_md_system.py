"""Tests for repro.md.system.ParticleSystem."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.md import ParticleSystem


def make(n=4, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return ParticleSystem(rng.normal(size=(n, 3)), np.full(n, 10.0), **kw)


class TestConstruction:
    def test_basic(self):
        s = make(5)
        assert s.n == 5
        assert len(s) == 5
        assert s.velocities.shape == (5, 3)
        np.testing.assert_array_equal(s.charges, np.zeros(5))

    def test_bad_positions_shape(self):
        with pytest.raises(ConfigurationError):
            ParticleSystem(np.zeros((3, 2)), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ParticleSystem(np.zeros((0, 3)), np.zeros(0))

    def test_mass_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            ParticleSystem(np.zeros((3, 3)), np.ones(2))

    def test_nonpositive_mass(self):
        with pytest.raises(ConfigurationError):
            ParticleSystem(np.zeros((2, 3)), np.array([1.0, 0.0]))

    def test_charges_and_types(self):
        s = ParticleSystem(
            np.zeros((2, 3)), np.ones(2),
            charges=np.array([-1.0, 1.0]), types=np.array([0, 1]),
        )
        assert s.charges[0] == -1.0
        assert s.types[1] == 1

    def test_velocity_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            ParticleSystem(np.zeros((2, 3)), np.ones(2), velocities=np.zeros((3, 3)))


class TestPhysics:
    def test_kinetic_energy_zero_at_rest(self):
        assert make().kinetic_energy() == pytest.approx(0.0)

    def test_temperature_after_init(self):
        s = make(2000, seed=1)
        s.initialize_velocities(seed=2)
        # 2000 particles -> temperature within a few percent of target.
        assert s.temperature() == pytest.approx(300.0, rel=0.05)

    def test_initialize_velocities_zero_momentum(self):
        s = make(50)
        s.initialize_velocities(seed=3)
        p = (s.masses[:, None] * s.velocities).sum(axis=0)
        np.testing.assert_allclose(p, 0.0, atol=1e-9)

    def test_center_of_mass_weighting(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        s = ParticleSystem(pos, np.array([1.0, 3.0]))
        assert s.center_of_mass()[2] == pytest.approx(1.5)

    def test_center_of_mass_subset(self):
        s = make(6, seed=4)
        idx = np.array([0, 2])
        com = s.center_of_mass(idx)
        np.testing.assert_allclose(com, s.positions[idx].mean(axis=0))


class TestValidation:
    def test_validate_clean(self):
        make().validate()

    def test_validate_nan_positions(self):
        s = make()
        s.positions[0, 0] = np.nan
        with pytest.raises(SimulationError):
            s.validate()

    def test_validate_inf_velocities(self):
        s = make()
        s.velocities[1, 2] = np.inf
        with pytest.raises(SimulationError):
            s.validate()


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        s = make(3, seed=5)
        s.initialize_velocities(seed=6)
        snap = s.snapshot()
        orig_pos = s.positions.copy()
        s.positions[:] = s.positions + 1.0
        s.restore(snap)
        np.testing.assert_array_equal(s.positions, orig_pos)

    def test_snapshot_is_deep(self):
        s = make(3)
        snap = s.snapshot()
        s.positions[:] = s.positions + 1.0
        assert not np.allclose(snap["positions"], s.positions)

    def test_copy_independent(self):
        s = make(3)
        c = s.copy()
        c.positions[:] = c.positions + 5.0
        assert not np.allclose(s.positions, c.positions)

    def test_kinetic_masses_cached(self):
        s = make(3)
        from repro.units import MASS_TO_KCAL

        np.testing.assert_allclose(s.kinetic_masses, s.masses * MASS_TO_KCAL)
