"""Property-based tests: MD engine invariants over random systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import (
    FENEBondForce,
    HarmonicAngleForce,
    LangevinBAOAB,
    ParticleSystem,
    Simulation,
    TopologyBuilder,
)
from repro.units import timestep_fs


#: FENE maximum bond extension (A) of the random chains, spaced 1 A apart.
RMAX = 3.0


@st.composite
def random_chains(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    k = draw(st.floats(min_value=1.0, max_value=20.0))
    rng = np.random.default_rng(seed)
    pos = np.zeros((n, 3))
    pos[:, 2] = np.arange(n) * 1.0
    pos += rng.normal(scale=0.1, size=pos.shape)
    masses = rng.uniform(5.0, 50.0, size=n)
    return pos, masses, k, seed


class TestEnergyConservation:
    @given(random_chains())
    @settings(max_examples=25, deadline=None)
    def test_nve_energy_drift_bounded(self, chain):
        pos, masses, k, seed = chain
        n = pos.shape[0]
        system = ParticleSystem(pos, masses)
        system.initialize_velocities(seed=seed)
        builder = TopologyBuilder(n).add_chain(range(n), k=k, r0=RMAX)
        for i in range(n - 2):
            builder.add_angle(i, i + 1, i + 2, 2.0, np.pi)
        topo = builder.build()
        sim = Simulation(
            system,
            [FENEBondForce(topo), HarmonicAngleForce(topo)],
            LangevinBAOAB(timestep_fs(0.25), friction=0.0),
        )
        e0 = sim.total_energy()
        sim.step(500)
        e1 = sim.total_energy()
        scale = max(abs(e0), n * 0.9)  # ~3/2 n kT floor
        assert abs(e1 - e0) / scale < 0.05

    @given(random_chains())
    @settings(max_examples=25, deadline=None)
    def test_momentum_conserved_without_external_forces(self, chain):
        pos, masses, k, seed = chain
        n = pos.shape[0]
        system = ParticleSystem(pos, masses)
        system.initialize_velocities(seed=seed)
        topo = TopologyBuilder(n).add_chain(range(n), k=k, r0=RMAX).build()
        sim = Simulation(system, [FENEBondForce(topo)],
                         LangevinBAOAB(timestep_fs(0.5), friction=0.0))
        sim.step(200)
        p = (system.masses[:, None] * system.velocities).sum(axis=0)
        # Internal forces are pairwise-balanced: momentum stays ~0.
        p_scale = float(np.abs(system.masses[:, None] * system.velocities).sum())
        assert np.abs(p).max() < 1e-9 * max(p_scale, 1.0) + 1e-9


class TestForceConsistency:
    @given(random_chains())
    @settings(max_examples=20, deadline=None)
    def test_bonded_forces_are_gradients(self, chain):
        pos, masses, k, seed = chain
        n = pos.shape[0]
        topo = TopologyBuilder(n).add_chain(range(n), k=k, r0=RMAX).build()
        force = FENEBondForce(topo)
        analytic = np.zeros_like(pos)
        force.compute(pos, analytic)
        h = 1e-6
        for trial in range(min(n, 3)):
            i = trial
            for d in range(3):
                pos[i, d] += h
                ep = force.compute(pos, np.zeros_like(pos))
                pos[i, d] -= 2 * h
                em = force.compute(pos, np.zeros_like(pos))
                pos[i, d] += h
                num = -(ep - em) / (2 * h)
                assert analytic[i, d] == pytest.approx(num, abs=5e-3)
