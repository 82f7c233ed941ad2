"""Vectorized-vs-reference kernel equivalence on a randomized system.

The ``"reference"`` kernel is the per-pair / per-bond Python-loop oracle;
the ``"vectorized"`` kernel is the production batched-NumPy path.  The
documented contract (see :mod:`repro.md.kernels`):

* neighbor-list candidate pairs are **bit-identical** between kernels
  (both deduplicate through the same sorted pair-key order);
* forces and energies agree to floating-point summation-order tolerance
  (~1e-12 relative), not bit-for-bit.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import (
    KERNELS,
    DebyeHuckelForce,
    FENEBondForce,
    HarmonicAngleForce,
    HarmonicBondForce,
    LennardJonesForce,
    NeighborList,
    TopologyBuilder,
    WCAForce,
    validate_kernel,
)
from repro.perf import build_benchmark_system
from repro.rng import as_generator

REL_TOL = 1e-10  # comfortably above the documented ~1e-12 contract


@pytest.fixture(scope="module")
def randomized():
    """A randomized benchmark-style system: chains + LJ/DH crowding."""
    system, topology = build_benchmark_system(200, seed=91)
    return system, topology


def both_kernels(make_force, positions, n):
    """Evaluate a force term under each kernel; return {kernel: (E, F)}."""
    out = {}
    for kernel in KERNELS:
        force = make_force(kernel)
        forces = np.zeros((n, 3))
        energy = force.compute(positions, forces)
        out[kernel] = (energy, forces)
    return out


def assert_equivalent(results):
    e_ref, f_ref = results["reference"]
    e_vec, f_vec = results["vectorized"]
    assert e_vec == pytest.approx(e_ref, rel=REL_TOL, abs=1e-12)
    scale = max(np.abs(f_ref).max(), 1.0)
    np.testing.assert_allclose(f_vec, f_ref, rtol=REL_TOL,
                               atol=REL_TOL * scale)


class TestKernelValidation:
    def test_known_kernels(self):
        assert set(KERNELS) == {"vectorized", "reference"}
        for kernel in KERNELS:
            assert validate_kernel(kernel) == kernel

    def test_unknown_kernel_raises(self):
        with pytest.raises(ConfigurationError):
            validate_kernel("fortran")

    def test_forces_reject_unknown_kernel(self, randomized):
        system, topology = randomized
        with pytest.raises(ConfigurationError):
            HarmonicBondForce(topology, kernel="nope")
        with pytest.raises(ConfigurationError):
            LennardJonesForce(system.types, np.ones(3), np.full(3, 4.0),
                              cutoff=8.0, kernel="nope")
        with pytest.raises(ConfigurationError):
            NeighborList(cutoff=8.0, kernel="nope")


class TestNeighborListKernels:
    @pytest.mark.parametrize("n,spread", [(65, 12.0), (300, 30.0)])
    def test_pairs_bit_identical(self, n, spread):
        rng = as_generator(17)
        positions = rng.uniform(0.0, spread, size=(n, 3))
        pairs = {}
        for kernel in KERNELS:
            nl = NeighborList(cutoff=4.0, skin=0.5, kernel=kernel)
            i, j = nl.pairs(positions)
            pairs[kernel] = (i.copy(), j.copy())
        np.testing.assert_array_equal(pairs["vectorized"][0],
                                      pairs["reference"][0])
        np.testing.assert_array_equal(pairs["vectorized"][1],
                                      pairs["reference"][1])

    def test_pairs_match_brute_force(self):
        rng = as_generator(3)
        n = 120
        positions = rng.uniform(0.0, 18.0, size=(n, 3))
        nl = NeighborList(cutoff=4.0, skin=0.5, kernel="vectorized")
        i, j = nl.pairs(positions)
        got = set(zip(i.tolist(), j.tolist()))
        d = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
        iu, ju = np.triu_indices(n, k=1)
        want = set(zip(iu[d[iu, ju] < 4.5].tolist(),
                       ju[d[iu, ju] < 4.5].tolist()))
        assert got == want


class TestForceKernelEquivalence:
    def test_harmonic_bonds(self, randomized):
        system, topology = randomized
        res = both_kernels(lambda k: HarmonicBondForce(topology, kernel=k),
                           system.positions, system.n)
        assert_equivalent(res)

    def test_fene_bonds(self, randomized):
        system, _ = randomized
        # Lattice row wraps put some bonds near rmax, stressing the
        # nonlinearity without crossing it.
        builder = TopologyBuilder(system.n)
        builder.add_chain(range(0, 40), k=2.0, r0=40.0)
        topology = builder.build()
        res = both_kernels(lambda k: FENEBondForce(topology, kernel=k),
                           system.positions, system.n)
        assert_equivalent(res)

    def test_harmonic_angles(self, randomized):
        system, topology = randomized
        res = both_kernels(lambda k: HarmonicAngleForce(topology, kernel=k),
                           system.positions, system.n)
        assert_equivalent(res)

    def test_lennard_jones(self, randomized):
        system, _ = randomized
        eps = np.array([0.3, 0.5, 0.8])
        sig = np.array([4.0, 4.5, 5.0])
        res = both_kernels(
            lambda k: LennardJonesForce(system.types, eps, sig, cutoff=8.0,
                                        kernel=k),
            system.positions, system.n)
        assert_equivalent(res)

    def test_wca(self, randomized):
        system, _ = randomized
        eps = np.array([0.3, 0.5, 0.8])
        sig = np.array([4.0, 4.5, 5.0])
        res = both_kernels(
            lambda k: WCAForce(system.types, eps, sig, kernel=k),
            system.positions, system.n)
        assert_equivalent(res)

    def test_debye_huckel(self, randomized):
        system, _ = randomized
        res = both_kernels(
            lambda k: DebyeHuckelForce(system.charges, cutoff=8.0, kernel=k),
            system.positions, system.n)
        assert_equivalent(res)
