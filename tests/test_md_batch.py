"""Replica-batched MD engine: the (R, N, 3) stack must be a pure layout
change — every force term, integrator update, and the whole 3-D SMD loop
bit-identical to stepping the same replicas one at a time."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import BatchedSimulation, ReplicaBatch
from repro.pore import build_translocation_simulation
from repro.rng import stream_for
from repro.smd import (
    BatchedSMDPullingForce,
    PullingProtocol,
    run_pulling_ensemble_3d,
)


def make_replicas(n_replicas, n_bases=4):
    """R independent translocation replicas with stream_for-derived seeds."""
    return [
        build_translocation_simulation(
            n_bases=n_bases, seed=stream_for(17, "rep", r)).simulation
        for r in range(n_replicas)
    ]


class TestReplicaBatch:
    def test_shape_validation(self):
        good = dict(positions=np.zeros((2, 3, 3)),
                    velocities=np.zeros((2, 3, 3)),
                    kinetic_masses=np.ones(3))
        assert ReplicaBatch(**good).n_replicas == 2
        with pytest.raises(ConfigurationError, match=r"\(R, N, 3\)"):
            ReplicaBatch(**{**good, "positions": np.zeros((3, 3))})
        with pytest.raises(ConfigurationError, match="velocities"):
            ReplicaBatch(**{**good, "velocities": np.zeros((1, 3, 3))})
        with pytest.raises(ConfigurationError, match="kinetic_masses"):
            ReplicaBatch(**{**good, "kinetic_masses": np.ones(5)})

    def test_rng_count_must_match_replicas(self):
        with pytest.raises(ConfigurationError, match="one rng per replica"):
            ReplicaBatch(positions=np.zeros((2, 3, 3)),
                         velocities=np.zeros((2, 3, 3)),
                         kinetic_masses=np.ones(3),
                         rngs=[np.random.default_rng(0)])


class TestBatchedSimulation:
    def test_needs_batched_integrator(self):
        sims = make_replicas(1)

        class PlainIntegrator:
            dt = 1e-5

        batch = ReplicaBatch(
            positions=np.stack([s.system.positions for s in sims]),
            velocities=np.stack([s.system.velocities for s in sims]),
            kinetic_masses=sims[0].system.kinetic_masses)
        with pytest.raises(ConfigurationError, match="step_batched"):
            BatchedSimulation(batch, sims[0].forces, PlainIntegrator())

    def test_forces_match_per_replica_sum(self):
        """Stacked force evaluation == each replica's own force sum,
        bit for bit, across the full bonded/nonbonded/external stack."""
        sims = make_replicas(3)
        batched = BatchedSimulation.from_simulations(sims)
        out = np.zeros_like(batched.batch.positions)
        energies = batched.compute_forces(batched.batch.positions, out)
        for r, sim in enumerate(sims):
            solo = np.zeros_like(sim.system.positions)
            e = sum(f.compute(sim.system.positions, solo) for f in sim.forces)
            np.testing.assert_array_equal(out[r], solo)
            assert energies[r] == e

    def test_trajectories_match_per_replica_stepping(self):
        """The core bit-identity contract: N steps of the batch == N steps
        of each replica alone (Langevin noise from each replica's stream)."""
        sims = make_replicas(3)
        batched = BatchedSimulation.from_simulations(make_replicas(3))
        batched.step(25)
        for r, sim in enumerate(sims):
            sim.step(25)
            np.testing.assert_array_equal(
                batched.batch.positions[r], sim.system.positions)
            np.testing.assert_array_equal(
                batched.batch.velocities[r], sim.system.velocities)
        assert batched.time == sims[0].time
        assert batched.step_count == sims[0].step_count

    def test_run_until_aligns_clocks(self):
        sims = make_replicas(2)
        batched = BatchedSimulation.from_simulations(make_replicas(2))
        target = 10.5 * sims[0].integrator.dt
        batched.run_until(target)
        for sim in sims:
            sim.run_until(target)
        assert batched.step_count == sims[0].step_count
        np.testing.assert_array_equal(
            batched.batch.positions[0], sims[0].system.positions)
        with pytest.raises(ConfigurationError, match="backwards"):
            batched.run_until(0.0)

    def test_reporters_see_the_batch(self):
        batched = BatchedSimulation.from_simulations(make_replicas(2))
        seen = []
        batched.add_reporter(lambda sim: seen.append(sim.step_count))
        batched.step(3)
        assert seen == [1, 2, 3]


class TestBatchedSMDForce:
    def test_protocols_must_share_schedule(self):
        sims = make_replicas(1)
        idx = np.arange(4)
        masses = sims[0].system.masses
        base = PullingProtocol(kappa_pn=500.0, velocity=100.0, distance=3.0,
                               start_z=0.0)
        with pytest.raises(ConfigurationError, match="share"):
            BatchedSMDPullingForce(
                [base, PullingProtocol(kappa_pn=500.0, velocity=200.0,
                                       distance=3.0, start_z=0.0)],
                idx, masses)
        # Differing starts are the supported per-replica variation.
        force = BatchedSMDPullingForce(
            [base, base.with_start(1.0)], idx, masses)
        assert len(force.protocols) == 2

    def test_empty_protocols_rejected(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            BatchedSMDPullingForce([], np.arange(2), np.ones(4))


class TestEnsemble3DBatched:
    def test_batched_3d_ensemble_bit_identical(self):
        """The full 3-D pipeline (build, equilibrate, per-replica traps,
        work recording, record interpolation): the stacked default against
        the per-trajectory oracle."""
        proto = PullingProtocol(kappa_pn=500.0, velocity=100.0, distance=3.0,
                                start_z=0.0, equilibration_ns=0.002)
        kwargs = dict(n_samples=2, n_bases=4, n_records=5, seed=42)
        vec = run_pulling_ensemble_3d(proto, kernel="reference", **kwargs)
        bat = run_pulling_ensemble_3d(proto, **kwargs)
        np.testing.assert_array_equal(vec.works, bat.works)
        np.testing.assert_array_equal(vec.positions, bat.positions)
        np.testing.assert_array_equal(vec.displacements, bat.displacements)
        assert vec.cpu_hours == bat.cpu_hours
