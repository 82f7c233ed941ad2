"""Tests for the CG ssDNA builder."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pore import build_ssdna
from repro.pore.dna import FENE_K, FENE_RMAX_FACTOR, RISE, WIGGLE


class TestBuilder:
    def test_basic_chain(self):
        pos, masses, charges, topo = build_ssdna(10, seed=0)
        assert pos.shape == (10, 3)
        assert topo.n_bonds == 9
        assert topo.n_angles == 8
        np.testing.assert_allclose(charges, -1.0)
        np.testing.assert_allclose(masses, 312.0)

    def test_spacing_along_direction(self):
        pos, *_ = build_ssdna(5, seed=1)
        dz = np.diff(pos[:, 2])
        np.testing.assert_allclose(dz, 6.5)

    def test_custom_start(self):
        pos, *_ = build_ssdna(3, start=(1.0, 2.0, 3.0), seed=2)
        assert pos[0, 2] == 3.0
        np.testing.assert_allclose(pos[0, :2], [1.0, 2.0], atol=5 * WIGGLE)

    def test_wiggle_transverse_only(self):
        pos, *_ = build_ssdna(20, seed=3)
        # z spacing unchanged by transverse wiggle.
        np.testing.assert_allclose(np.diff(pos[:, 2]), 6.5, atol=1e-12)
        # But x/y are perturbed.
        assert np.std(pos[:, 0]) > 0.1

    def test_deterministic_with_seed(self):
        a, *_ = build_ssdna(8, seed=42)
        b, *_ = build_ssdna(8, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_fene_params(self):
        _, _, _, topo = build_ssdna(4, seed=4)
        np.testing.assert_allclose(topo.bond_params[:, 0], FENE_K)
        np.testing.assert_allclose(topo.bond_params[:, 1], FENE_RMAX_FACTOR * RISE)

    def test_too_few_bases(self):
        with pytest.raises(ConfigurationError):
            build_ssdna(1)
