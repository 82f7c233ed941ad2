"""Tests for nonbonded force terms (LJ, WCA, Debye-Hueckel)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import DebyeHuckelForce, LennardJonesForce, WCAForce
from repro.md.nonbonded import COULOMB_CONSTANT


def pair_system(r, n_types=1):
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, r]])
    types = np.zeros(2, dtype=np.int64)
    return pos, types


class TestLennardJones:
    def make(self, cutoff=10.0, eps=0.5, sigma=3.0):
        return LennardJonesForce(
            np.zeros(2, dtype=np.int64),
            epsilon=np.array([eps]), sigma=np.array([sigma]), cutoff=cutoff,
        )

    def test_minimum_at_r_min(self):
        f = self.make()
        r_min = 2.0 ** (1 / 6) * 3.0
        pos, _ = pair_system(r_min)
        forces = np.zeros_like(pos)
        f.compute(pos, forces)
        np.testing.assert_allclose(forces, 0.0, atol=1e-9)

    def test_repulsive_inside_minimum(self):
        f = self.make()
        pos, _ = pair_system(2.5)
        forces = np.zeros((2, 3))
        f.compute(pos, forces)
        assert forces[1, 2] > 0 and forces[0, 2] < 0

    def test_attractive_outside_minimum(self):
        f = self.make()
        pos, _ = pair_system(4.5)
        forces = np.zeros((2, 3))
        f.compute(pos, forces)
        assert forces[1, 2] < 0

    def test_energy_shifted_to_zero_at_cutoff(self):
        f = self.make(cutoff=8.0)
        pos, _ = pair_system(7.999)
        e = f.compute(pos, np.zeros((2, 3)))
        assert abs(e) < 1e-3

    def test_beyond_cutoff_zero(self):
        f = self.make(cutoff=8.0)
        pos, _ = pair_system(9.0)
        forces = np.zeros((2, 3))
        assert f.compute(pos, forces) == 0.0
        np.testing.assert_array_equal(forces, 0.0)

    def test_lorentz_berthelot_mixing(self):
        f = LennardJonesForce(
            np.array([0, 1]),
            epsilon=np.array([0.4, 0.9]),
            sigma=np.array([2.0, 4.0]),
            cutoff=10.0,
        )
        assert f._eps_table[0, 1] == pytest.approx(np.sqrt(0.36))
        assert f._sig_table[0, 1] == pytest.approx(3.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            LennardJonesForce(np.zeros(2, dtype=np.int64),
                              epsilon=np.array([-1.0]), sigma=np.array([3.0]),
                              cutoff=10.0)
        with pytest.raises(ConfigurationError):
            LennardJonesForce(np.array([0, 5]),
                              epsilon=np.array([1.0]), sigma=np.array([3.0]),
                              cutoff=10.0)

    def test_gradient_consistency(self):
        rng = np.random.default_rng(0)
        n = 6
        types = np.zeros(n, dtype=np.int64)
        f = LennardJonesForce(types, np.array([0.3]), np.array([3.0]), cutoff=9.0)
        pos = rng.uniform(0, 8, size=(n, 3))
        analytic = np.zeros_like(pos)
        f.compute(pos, analytic)
        h = 1e-6
        num = np.zeros_like(pos)
        for i in range(n):
            for d in range(3):
                pos[i, d] += h
                ep = f.compute(pos, np.zeros_like(pos))
                pos[i, d] -= 2 * h
                em = f.compute(pos, np.zeros_like(pos))
                pos[i, d] += h
                num[i, d] = -(ep - em) / (2 * h)
        np.testing.assert_allclose(analytic, num, atol=1e-3)


class TestWCA:
    def make(self):
        return WCAForce(np.zeros(2, dtype=np.int64),
                        epsilon=np.array([0.3]), sigma=np.array([5.0]))

    def test_zero_beyond_minimum(self):
        f = self.make()
        pos, _ = pair_system(2.0 ** (1 / 6) * 5.0 + 0.01)
        forces = np.zeros((2, 3))
        assert f.compute(pos, forces) == pytest.approx(0.0)
        np.testing.assert_array_equal(forces, 0.0)

    def test_purely_repulsive(self):
        f = self.make()
        for r in (3.0, 4.0, 5.0, 5.5):
            pos, _ = pair_system(r)
            forces = np.zeros((2, 3))
            e = f.compute(pos, forces)
            assert e >= 0.0
            assert forces[1, 2] >= 0.0

    def test_energy_eps_at_sigma(self):
        # U(sigma) = 4 eps (1 - 1) + eps = eps for WCA.
        f = self.make()
        pos, _ = pair_system(5.0)
        assert f.compute(pos, np.zeros((2, 3))) == pytest.approx(0.3, rel=1e-6)


class TestDebyeHuckel:
    def make(self, q=(-1.0, -1.0)):
        return DebyeHuckelForce(np.array(q))

    def test_like_charges_repel(self):
        f = self.make()
        pos, _ = pair_system(4.0)
        forces = np.zeros((2, 3))
        e = f.compute(pos, forces)
        assert e > 0
        assert forces[1, 2] > 0

    def test_opposite_charges_attract(self):
        f = self.make(q=(-1.0, 1.0))
        pos, _ = pair_system(4.0)
        forces = np.zeros((2, 3))
        e = f.compute(pos, forces)
        assert e < 0
        assert forces[1, 2] < 0

    def test_screening_decay(self):
        f = self.make()
        pos4, _ = pair_system(4.0)
        pos10, _ = pair_system(10.0)
        e4 = f.compute(pos4, np.zeros((2, 3)))
        e10 = f.compute(pos10, np.zeros((2, 3)))
        # Much faster than bare Coulomb 1/r decay.
        lam = DebyeHuckelForce.DEBYE_LENGTH
        assert e10 < e4 * (4.0 / 10.0) * np.exp(-(10.0 - 4.0) / lam) * 1.2

    def test_magnitude_vs_analytic(self):
        f = DebyeHuckelForce(np.array([-1.0, -1.0]))
        r = 5.0
        pos, _ = pair_system(r)
        e = f.compute(pos, np.zeros((2, 3)))
        expected = (COULOMB_CONSTANT / f.DIELECTRIC
                    * np.exp(-r / f.DEBYE_LENGTH) / r)
        assert e == pytest.approx(expected, rel=1e-9)

    def test_neutral_particles_skip(self):
        f = DebyeHuckelForce(np.array([0.0, -1.0]))
        pos, _ = pair_system(3.0)
        assert f.compute(pos, np.zeros((2, 3))) == 0.0

    def test_gradient_consistency(self):
        f = DebyeHuckelForce(np.array([-1.0, 1.0, -1.0]))
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 6, size=(3, 3))
        analytic = np.zeros_like(pos)
        f.compute(pos, analytic)
        h = 1e-6
        num = np.zeros_like(pos)
        for i in range(3):
            for d in range(3):
                pos[i, d] += h
                ep = f.compute(pos, np.zeros_like(pos))
                pos[i, d] -= 2 * h
                em = f.compute(pos, np.zeros_like(pos))
                pos[i, d] += h
                num[i, d] = -(ep - em) / (2 * h)
        np.testing.assert_allclose(analytic, num, atol=1e-5)
