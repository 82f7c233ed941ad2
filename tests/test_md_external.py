"""Tests for external (one-body) force terms."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.md.kernels as kernels
from repro.errors import ConfigurationError
from repro.md import (
    ExternalFieldForce,
    HarmonicRestraintForce,
    SteeringForce,
)
from repro.pore import DEFAULT_GEOMETRY, HemolysinPore, MembraneSlab


class FakeField:
    """Constant downhill field in z for adapter tests."""

    def energy_and_forces(self, positions):
        forces = np.zeros_like(positions)
        forces[:, 2] = -1.0
        return float(positions[:, 2].sum()), forces


class TestExternalFieldForce:
    def test_all_particles(self):
        f = ExternalFieldForce(FakeField())
        pos = np.arange(9.0).reshape(3, 3)
        forces = np.zeros_like(pos)
        e = f.compute(pos, forces)
        assert e == pytest.approx(pos[:, 2].sum())
        np.testing.assert_allclose(forces[:, 2], -1.0)

    def test_subset(self):
        f = ExternalFieldForce(FakeField(), indices=np.array([1]))
        pos = np.arange(9.0).reshape(3, 3)
        forces = np.zeros_like(pos)
        e = f.compute(pos, forces)
        assert e == pytest.approx(pos[1, 2])
        assert forces[0, 2] == 0.0 and forces[1, 2] == -1.0


FIELDS = [HemolysinPore(),
          HemolysinPore(replace(DEFAULT_GEOMETRY, sevenfold_amplitude=0.0)),
          MembraneSlab()]


def stack_positions(hot, n, seed):
    """An ``(R, n, 3)`` stack, one replica per entry of ``hot``: a cold
    replica sits inside the lumen above the membrane (no wall overlap,
    nothing in the slab, so both fields take their shortcut on it alone),
    a hot one is spread across the slab, mostly outside the wall."""
    rng = np.random.default_rng(seed)
    pos = np.empty((len(hot), n, 3))
    for row, is_hot in zip(pos, hot):
        half_width, z_lo, z_hi = (40.0, -38.0, -12.0) if is_hot else (3.0, 5.0, 40.0)
        row[:, :2] = rng.uniform(-half_width, half_width, size=(n, 2))
        row[:, 2] = rng.uniform(z_lo, z_hi, size=n)
    return pos


class TestFieldsOverAStack:
    """`FieldPotential` over the leading replica axis: each row of the
    stacked call holds the bits of that replica's solo call."""

    @given(hot=st.one_of(st.lists(st.booleans(), min_size=2, max_size=8),
                         st.integers(2, 8).map(lambda r: [False] * r),
                         st.integers(2, 8).map(lambda r: [True] * r)),
           n=st.integers(1, 16), special=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_stack_rows_equal_solo_calls(self, hot, n, special, seed):
        """None, some or all replicas overlapping the wall / inside the
        slab — the data-dependent shortcuts must not leak between rows —
        with a bead exactly on the axis and on the membrane mid-plane."""
        pos = stack_positions(hot, n, seed)
        if special:
            pos[0, 0] = (0.0, 0.0, MembraneSlab().z_center)
            pos[-1, -1, :2] = 0.0
        for field in FIELDS:
            energy, forces = field.energy_and_forces(pos)
            assert energy.shape == (len(hot),) and forces.shape == pos.shape
            solo = [field.energy_and_forces(x) for x in pos]
            np.testing.assert_array_equal(energy, [e for e, _ in solo])
            np.testing.assert_array_equal(forces, [f for _, f in solo])

    def test_shortcuts_are_exercised(self):
        """The generator's classes are what the property says they are."""
        cold = stack_positions([False], 16, 1)[0]
        hot = stack_positions([True], 16, 1)[0]
        slab, pore = MembraneSlab(), HemolysinPore()
        assert slab.energy_and_forces(cold)[0] == 0.0
        assert slab.energy_and_forces(hot)[0] > 0.0
        g = pore.geometry
        wall = lambda x: np.hypot(x[:, 0], x[:, 1]) > g.radius(x[:, 2]) + (
            g.sevenfold_amplitude * np.cos(7.0 * np.arctan2(x[:, 1], x[:, 0])))
        assert not wall(cold).any() and wall(hot).any()

    @pytest.mark.parametrize("indices", [[4, 0, 2], [1, 3, 1, 1, 5, 3]],
                             ids=["unique", "duplicate"])
    def test_indexed_stack_equals_indexed_solo(self, indices):
        pos = stack_positions([True, False, True, False], 6, 3)
        start = np.random.default_rng(4).normal(size=pos.shape)
        for field in FIELDS:
            term = ExternalFieldForce(field, indices=np.array(indices))
            assert term.stackable
            forces = start.copy()
            energy = term.compute(pos, forces)
            assert energy.shape == (4,)
            solo_forces = start.copy()
            solo = [term.compute(x, f) for x, f in zip(pos, solo_forces)]
            assert all(isinstance(e, float) for e in solo)
            np.testing.assert_array_equal(energy, solo)
            np.testing.assert_array_equal(forces, solo_forces)
            untouched = np.setdiff1d(np.arange(6), indices)
            np.testing.assert_array_equal(forces[:, untouched],
                                          start[:, untouched])


    def test_stack_is_one_vectorised_body(self, monkeypatch):
        """No per-replica Python loop: the fields and ExternalFieldForce
        evaluate a stack with every binding of ``per_replica`` raising."""
        def forbidden(*args, **kwargs):
            raise AssertionError("per_replica reached from a field")

        original = kernels.per_replica
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, "per_replica", None) is original):
                monkeypatch.setattr(module, "per_replica", forbidden)
        pos = stack_positions([True, False, True], 6, 5)
        for field in FIELDS:
            energy, forces = field.energy_and_forces(pos)
            assert energy.shape == (3,) and forces.shape == pos.shape
            term = ExternalFieldForce(field)
            assert term.stackable
            assert term.compute(pos, np.zeros_like(pos)).shape == (3,)
        with pytest.raises(AssertionError, match="per_replica reached"):
            kernels.per_replica(None, pos, pos)


class TestHarmonicRestraint:
    def test_zero_at_anchor(self):
        anchors = np.array([[1.0, 2.0, 3.0]])
        f = HarmonicRestraintForce(np.array([0]), anchors, k=10.0)
        forces = np.zeros((1, 3))
        assert f.compute(anchors.copy(), forces) == 0.0

    def test_restoring_force(self):
        f = HarmonicRestraintForce(np.array([0]), np.zeros((1, 3)), k=10.0)
        pos = np.array([[0.0, 0.0, 2.0]])
        forces = np.zeros((1, 3))
        e = f.compute(pos, forces)
        assert e == pytest.approx(0.5 * 10 * 4)
        assert forces[0, 2] == pytest.approx(-20.0)

    def test_anchor_shape_checked(self):
        with pytest.raises(ConfigurationError):
            HarmonicRestraintForce(np.array([0, 1]), np.zeros((1, 3)), k=1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            HarmonicRestraintForce(np.array([0]), np.zeros((1, 3)), k=-1.0)


class TestSteeringForce:
    def test_inactive_by_default(self):
        f = SteeringForce(3)
        assert not f.active
        forces = np.zeros((3, 3))
        assert f.compute(np.zeros((3, 3)), forces) == 0.0
        np.testing.assert_array_equal(forces, 0.0)

    def test_apply_and_clear(self):
        f = SteeringForce(3)
        f.apply(np.array([1]), np.array([0.0, 0.0, 5.0]))
        assert f.active
        forces = np.zeros((3, 3))
        f.compute(np.zeros((3, 3)), forces)
        assert forces[1, 2] == 5.0
        f.clear()
        assert not f.active

    def test_out_of_range_indices(self):
        f = SteeringForce(3)
        with pytest.raises(ConfigurationError):
            f.apply(np.array([5]), np.zeros(3))

    def test_empty_selection_is_inactive(self):
        f = SteeringForce(3)
        f.apply(np.zeros(0, dtype=np.intp), np.zeros(3))
        assert not f.active
