"""Tests for the membrane slab potential."""

import numpy as np

from repro.pore import MembraneSlab


#: The bilayer mid-plane; positions below are placed relative to it.
C = MembraneSlab.Z_CENTER


class TestMembrane:
    def make(self):
        return MembraneSlab()

    def test_no_energy_outside_slab(self):
        m = self.make()
        pos = np.array([[50.0, 0.0, 10.0], [40.0, 0.0, -60.0]])
        e, f = m.energy_and_forces(pos)
        assert e == 0.0
        np.testing.assert_array_equal(f, 0.0)

    def test_repels_in_slab_outside_hole(self):
        m = self.make()
        pos = np.array([[40.0, 0.0, C + 5.0]])
        e, f = m.energy_and_forces(pos)
        assert e > 0
        assert f[0, 2] > 0  # pushed up toward the nearer face

    def test_hole_is_exempt(self):
        m = self.make()
        on_axis = np.array([[0.0, 0.0, C]])  # on axis, mid-membrane
        in_bulk = np.array([[40.0, 0.0, C]])
        e_axis, f = m.energy_and_forces(on_axis)
        e_bulk, _ = m.energy_and_forces(in_bulk)
        # The soft hole edge leaves a small tail, orders of magnitude below
        # the bulk slab energy, and no force on the axis.
        assert e_axis < 0.01 * e_bulk
        np.testing.assert_allclose(f, 0.0, atol=1e-9)

    def test_push_direction_depends_on_side(self):
        m = self.make()
        above = np.array([[40.0, 0.0, C + 10.0]])
        below = np.array([[40.0, 0.0, C - 10.0]])
        _, fa = m.energy_and_forces(above)
        _, fb = m.energy_and_forces(below)
        assert fa[0, 2] > 0 and fb[0, 2] < 0

    def test_gradient_consistency(self):
        m = self.make()
        rng = np.random.default_rng(2)
        pos = np.column_stack([
            rng.uniform(10, 30, 5),
            rng.uniform(-5, 5, 5),
            C + rng.uniform(-15, 15, 5),
        ])
        _, analytic = m.energy_and_forces(pos)
        h = 1e-6
        num = np.zeros_like(pos)
        for i in range(pos.shape[0]):
            for d in range(3):
                pos[i, d] += h
                ep, _ = m.energy_and_forces(pos)
                pos[i, d] -= 2 * h
                em, _ = m.energy_and_forces(pos)
                pos[i, d] += h
                num[i, d] = -(ep - em) / (2 * h)
        np.testing.assert_allclose(analytic, num, atol=1e-4)
