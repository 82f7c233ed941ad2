"""Vectorized-vs-reference kernel equivalence on a randomized system.

The ``"reference"`` kernel is the per-pair / per-bond Python-loop oracle;
the ``"vectorized"`` kernel is the production batched-NumPy path.  The
documented contract (see :mod:`repro.md.kernels`):

* both kernels read the same candidate pairs (the one neighbour search);
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
    LennardJonesForce,
    NeighborList,
    ParticleSystem,
    TopologyBuilder,
    WCAForce,
    validate_kernel,
)
from repro.rng import as_generator

REL_TOL = 1e-10  # comfortably above the documented ~1e-12 contract

#: Bead number density (1/A^3) — ~25 neighbors per bead within an 8 A
#: cutoff plus skin, a realistic CG crowding level.
DENSITY = 0.01
CHAIN_LENGTH = 12


def _randomized_system(n_particles, seed):
    """Deterministic randomized CG system.

    Beads sit on a jittered cubic lattice (no catastrophic overlaps, so
    the LJ forces are finite) inside a box sized for :data:`DENSITY`,
    threaded into chains of :data:`CHAIN_LENGTH` beads with harmonic
    bonds and angles, and given alternating charges.
    """
    rng = as_generator(seed)
    side = (n_particles / DENSITY) ** (1.0 / 3.0)
    cells_per_side = int(np.ceil(n_particles ** (1.0 / 3.0)))
    spacing = side / cells_per_side
    grid = np.arange(cells_per_side) * spacing
    lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    lattice = lattice.reshape(-1, 3)[:n_particles]
    positions = lattice + rng.uniform(-0.2, 0.2, size=(n_particles, 3)) * spacing

    types = np.arange(n_particles) % 3
    charges = np.where(np.arange(n_particles) % 2 == 0, -1.0, 1.0)
    masses = np.full(n_particles, 300.0)

    builder = TopologyBuilder(n_particles)
    for start in range(0, n_particles - CHAIN_LENGTH + 1, CHAIN_LENGTH):
        chain = list(range(start, start + CHAIN_LENGTH))
        builder.add_chain(chain, k=10.0, r0=spacing)
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            builder.add_angle(a, b, c, k_theta=5.0, theta0=np.pi)
    topology = builder.build()

    system = ParticleSystem(
        positions=positions,
        masses=masses,
        velocities=np.zeros_like(positions),
        charges=charges,
        types=types,
    )
    return system, topology


@pytest.fixture(scope="module")
def randomized():
    """A randomized CG system: chains + LJ/DH crowding."""
    return _randomized_system(200, seed=91)


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
            FENEBondForce(topology, kernel="nope")
        with pytest.raises(ConfigurationError):
            LennardJonesForce(system.types, np.ones(3), np.full(3, 4.0),
                              cutoff=8.0, kernel="nope")


class TestNeighborListKernels:
    """Both force kernels read the pairs of the one direct search: the
    brute-force upper triangle within ``cutoff + skin``, sorted by
    ``(i, j)``, at any particle count."""

    @pytest.mark.parametrize("n,spread", [(65, 12.0), (300, 30.0)])
    def test_pairs_bit_identical(self, n, spread):
        rng = as_generator(17)
        positions = rng.uniform(0.0, spread, size=(n, 3))
        dr = positions[None, :] - positions[:, None]
        within = np.einsum("ijk,ijk->ij", dr, dr) <= 4.5**2
        want_i, want_j = np.nonzero(np.triu(within, k=1))
        for kernel in KERNELS:
            term = LennardJonesForce(np.zeros(n, dtype=int), np.ones(1),
                                     np.ones(1), cutoff=3.5, kernel=kernel)
            i, j = term.neighbor_list.pairs(positions)
            np.testing.assert_array_equal(i, want_i)
            np.testing.assert_array_equal(j, want_j)

    def test_pairs_match_brute_force(self):
        rng = as_generator(3)
        n = 120
        positions = rng.uniform(0.0, 18.0, size=(n, 3))
        nl = NeighborList(cutoff=4.0, skin=0.5)
        i, j = nl.pairs(positions)
        got = set(zip(i.tolist(), j.tolist()))
        d = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
        iu, ju = np.triu_indices(n, k=1)
        want = set(zip(iu[d[iu, ju] < 4.5].tolist(),
                       ju[d[iu, ju] < 4.5].tolist()))
        assert got == want


class TestForceKernelEquivalence:
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
            lambda k: DebyeHuckelForce(system.charges, kernel=k),
            system.positions, system.n)
        assert_equivalent(res)
