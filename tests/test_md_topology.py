"""Tests for repro.md.topology."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import Topology, TopologyBuilder


class TestTopology:
    def test_empty(self):
        t = Topology(5)
        assert t.n_bonds == 0 and t.n_angles == 0
        assert t.exclusion_pairs() == set()

    def test_bond_index_bounds(self):
        with pytest.raises(ConfigurationError):
            Topology(2, bonds=np.array([[0, 2]]), bond_params=np.array([[1.0, 1.0]]))

    def test_self_bond_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(3, bonds=np.array([[1, 1]]), bond_params=np.array([[1.0, 1.0]]))

    def test_params_required_with_terms(self):
        with pytest.raises(ConfigurationError):
            Topology(3, bonds=np.array([[0, 1]]))

    def test_param_shape_checked(self):
        with pytest.raises(ConfigurationError):
            Topology(3, bonds=np.array([[0, 1]]), bond_params=np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_exclusions_include_angles(self):
        b = TopologyBuilder(3)
        b.add_chain(range(3), k=1.0, r0=1.0)
        b.add_angle(0, 1, 2, k_theta=1.0, theta0=3.14)
        t = b.build()
        assert (0, 1) in t.exclusion_pairs()
        assert (0, 2) in t.exclusion_pairs()

    def test_merged_with_offsets_indices(self):
        a = TopologyBuilder(2).add_bond(0, 1, 1.0, 1.0).build()
        b = TopologyBuilder(2).add_bond(0, 1, 2.0, 2.0).build()
        merged = a.merged_with(b, offset=2)
        assert merged.n_bonds == 2
        np.testing.assert_array_equal(merged.bonds[1], [2, 3])
        assert merged.bond_params[1, 0] == 2.0

    def test_merge_empty_topologies(self):
        merged = Topology(2).merged_with(Topology(3), offset=2)
        assert merged.n_particles == 5
        assert merged.n_bonds == 0


class TestTopologyBuilder:
    def test_add_chain(self):
        t = TopologyBuilder(4).add_chain(range(4), k=5.0, r0=1.2).build()
        assert t.n_bonds == 3
        np.testing.assert_allclose(t.bond_params[:, 0], 5.0)
        np.testing.assert_allclose(t.bond_params[:, 1], 1.2)

    def test_fluent_interface(self):
        t = (
            TopologyBuilder(3)
            .add_bond(0, 1, 1.0, 1.0)
            .add_bond(1, 2, 1.0, 1.0)
            .add_angle(0, 1, 2, 0.5, 3.0)
            .build()
        )
        assert t.n_bonds == 2 and t.n_angles == 1

    def test_angle_params_stored(self):
        t = TopologyBuilder(3).add_angle(0, 1, 2, 2.5, 1.57).build()
        assert t.angle_params[0, 0] == 2.5
        assert t.angle_params[0, 1] == pytest.approx(1.57)
