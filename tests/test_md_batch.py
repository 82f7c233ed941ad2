"""Replica stacks on the one MD engine: the (R, N, 3) stack must be a pure
layout change — every force term, integrator update, and the whole 3-D SMD
loop bit-identical to stepping the same replicas one at a time, because a
stack row runs the same vectorised body a solo simulation runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.md import (
    HarmonicRestraintForce,
    LangevinBAOAB,
    ReplicaBatch,
    Simulation,
    stack_simulations,
)
from repro.pore import build_translocation_simulation
from repro.rng import stream_for
from repro.smd import (
    PullingProtocol,
    SMDPullingForce,
    SMDWorkRecorder,
    run_pulling_ensemble_3d,
)


class TetherToOrigin:
    """A user's own term: written for (N, 3), no ``stackable`` mark."""

    def compute(self, positions, forces):
        assert positions.ndim == 2
        forces -= 0.1 * positions
        return float(0.05 * np.sum(positions * positions))


def make_replicas(n_replicas, n_bases=4, seed=17, integrator="baoab",
                  kernel=None, plain_terms=False):
    """R independent translocation replicas with stream_for-derived seeds.

    ``integrator="verlet"`` sets the builder's Langevin BAOAB to zero
    friction (velocity Verlet), ``kernel`` re-points every term that has one,
    ``plain_terms`` appends two terms that only understand (N, 3).
    """
    sims = []
    for r in range(n_replicas):
        sim = build_translocation_simulation(
            n_bases=n_bases, seed=stream_for(seed, "rep", r)).simulation
        if integrator == "verlet":
            sim.integrator = LangevinBAOAB(
                sim.integrator.dt, friction=0.0, seed=stream_for(seed, "vv", r))
        if kernel is not None:
            for force in sim.forces:
                if hasattr(force, "kernel"):
                    force.kernel = kernel
        if plain_terms:
            idx = np.arange(2)
            sim.forces += [
                HarmonicRestraintForce(idx, np.zeros((2, 3)), k=0.02),
                TetherToOrigin(),
            ]
        sims.append(sim)
    return sims


def term_energies(sim):
    """Per-term energies (in force-stack order) and the summed forces at
    the current positions, each term evaluated as the engine evaluates it."""
    out = np.zeros_like(sim.system.positions)
    energies = [
        Simulation(sim.system, [force], sim.integrator).compute_forces(
            sim.system.positions, out)
        for force in sim.forces
    ]
    return energies, out


def assert_stack_equals_solo(stacked, sims):
    """Positions, velocities, per-term energies, forces and clocks of a
    stack against the solo simulations of its replicas, bit for bit."""
    stack_energies, stack_forces = term_energies(stacked)
    for r, sim in enumerate(sims):
        np.testing.assert_array_equal(
            stacked.system.positions[r], sim.system.positions)
        np.testing.assert_array_equal(
            stacked.system.velocities[r], sim.system.velocities)
        solo_energies, solo_forces = term_energies(sim)
        np.testing.assert_array_equal(stack_forces[r], solo_forces)
        for force, stack_e, solo_e in zip(sim.forces, stack_energies,
                                          solo_energies):
            assert stack_e[r] == solo_e, type(force).__name__
    assert stacked.time == sims[0].time
    assert stacked.step_count == sims[0].step_count


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
    @pytest.mark.parametrize("n_steps", [0, 50])
    @pytest.mark.parametrize("n_replicas, n_bases", [(3, 4), (8, 8), (5, 16)])
    def test_forces_match_per_replica_sum(self, n_replicas, n_bases, n_steps):
        """Stacked force evaluation == each replica's own, bit for bit and
        term by term, across the full bonded/nonbonded/external stack.
        (8, 8) is the ``cg3d_pull`` shape, where a strided-row ``np.dot``
        used to put the stacked FENE energies 1 ulp off the solo ones."""
        sims = make_replicas(n_replicas, n_bases)
        stacked = stack_simulations(make_replicas(n_replicas, n_bases))
        stacked.step(n_steps)
        for sim in sims:
            sim.step(n_steps)
        assert_stack_equals_solo(stacked, sims)
        assert stacked.potential_energy.shape == (n_replicas,)

    def test_trajectories_match_per_replica_stepping(self):
        """The core bit-identity contract: N steps of the stack == N steps
        of each replica alone (Langevin noise from each replica's stream)."""
        sims = make_replicas(3)
        stacked = stack_simulations(make_replicas(3))
        stacked.step(25)
        for r, sim in enumerate(sims):
            sim.step(25)
            np.testing.assert_array_equal(
                stacked.system.positions[r], sim.system.positions)
            np.testing.assert_array_equal(
                stacked.system.velocities[r], sim.system.velocities)
        np.testing.assert_array_equal(
            stacked.potential_energy, [sim.potential_energy for sim in sims])
        assert stacked.time == sims[0].time
        assert stacked.step_count == sims[0].step_count

    def test_run_until_aligns_clocks(self):
        sims = make_replicas(2)
        stacked = stack_simulations(make_replicas(2))
        target = 10.5 * sims[0].integrator.dt
        stacked.run_until(target)
        for sim in sims:
            sim.run_until(target)
        assert stacked.step_count == sims[0].step_count
        np.testing.assert_array_equal(
            stacked.system.positions[0], sims[0].system.positions)
        with pytest.raises(ConfigurationError, match="backwards"):
            stacked.run_until(0.0)

    def test_reporters_see_the_batch(self):
        stacked = stack_simulations(make_replicas(2))
        seen = []
        stacked.add_reporter(lambda sim: seen.append(
            (sim.step_count, sim.system.positions.shape)))
        stacked.step(3)
        assert seen == [(1, (2, 4, 3)), (2, (2, 4, 3)), (3, (2, 4, 3))]

    @given(n_replicas=st.integers(1, 5), n_bases=st.integers(4, 10),
           n_steps=st.integers(0, 25),
           integrator=st.sampled_from(["baoab", "verlet"]),
           plain_terms=st.booleans(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_solo_property(self, n_replicas, n_bases, n_steps,
                                        integrator, plain_terms, seed):
        """Stack == solo as a property: any replica count (the R = 1 stack
        included), chain length, step count and integrator, with or
        without terms the engine must evaluate replica by replica; state,
        per-term energies and every generator's end state."""
        kwargs = dict(n_bases=n_bases, seed=seed, integrator=integrator,
                      plain_terms=plain_terms)
        sims = make_replicas(n_replicas, **kwargs)
        stacked_from = make_replicas(n_replicas, **kwargs)
        stacked = stack_simulations(stacked_from)
        stacked.step(n_steps)
        for sim in sims:
            sim.step(n_steps)
        assert_stack_equals_solo(stacked, sims)
        assert len(stacked.system.rngs) == n_replicas
        for mine, sim in zip(stacked_from, sims):
            assert (mine.integrator.rng.bit_generator.state
                    == sim.integrator.rng.bit_generator.state)

    def test_reference_kernel_means_reference_in_a_stack(self):
        """A stack of ``kernel="reference"`` terms runs the scalar oracle
        once per replica: equal to the solo reference runs bit for bit,
        and to the vectorised stack within the kernels' 1e-12."""
        sims = make_replicas(3, kernel="reference")
        stacked = stack_simulations(make_replicas(3, kernel="reference"))
        seen = []
        fene = stacked.forces[0]
        oracle = fene._compute_reference
        fene._compute_reference = lambda x, f: (seen.append(x.shape),
                                                oracle(x, f))[1]
        vectorised = stack_simulations(make_replicas(3))
        for sim in (stacked, vectorised, *sims):
            sim.step(10)
        assert_stack_equals_solo(stacked, sims)
        assert seen and set(seen) == {(4, 3)} and len(seen) % 3 == 0
        np.testing.assert_allclose(stacked.system.positions,
                                   vectorised.system.positions, rtol=1e-12)
        np.testing.assert_allclose(stacked.potential_energy,
                                   vectorised.potential_energy, rtol=1e-12)

    def test_solo_simulation_keeps_float_energy(self):
        sim = make_replicas(1, plain_terms=True)[0]
        sim.step(2)
        assert isinstance(sim.potential_energy, float)
        assert sim.system.positions.shape == (4, 3)


class TestBatchedSMDForce:
    BASE = PullingProtocol(kappa_pn=500.0, velocity=100.0, distance=3.0,
                           start_z=0.0)

    def test_protocols_must_share_schedule(self):
        sims = make_replicas(1)
        idx = np.arange(4)
        masses = sims[0].system.masses
        with pytest.raises(ConfigurationError, match="share"):
            SMDPullingForce(
                [self.BASE, PullingProtocol(kappa_pn=500.0, velocity=200.0,
                                            distance=3.0, start_z=0.0)],
                idx, masses)
        # Differing starts are the supported per-replica variation.
        force = SMDPullingForce(
            [self.BASE, self.BASE.with_start(1.0)], idx, masses)
        assert len(force.protocols) == 2
        np.testing.assert_array_equal(force.trap_position, [0.0, 1.0])

    def test_protocols_must_share_direction(self):
        """The stacked traps move with one signed velocity, so a stack
        mixing forward and reverse pulls is refused, not half-honoured."""
        masses = make_replicas(1)[0].system.masses
        with pytest.raises(ConfigurationError, match="direction"):
            SMDPullingForce([self.BASE, self.BASE.reversed()],
                            np.arange(4), masses)
        reverse = self.BASE.reversed()
        force = SMDPullingForce([reverse, reverse.with_start(1.0)],
                                np.arange(4), masses)
        force.set_time(0.01)
        np.testing.assert_array_equal(
            force.trap_position,
            [p.trap_position(0.01) for p in force.protocols])

    def test_empty_protocols_rejected(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            SMDPullingForce([], np.arange(2), np.ones(4))

    def test_one_trap_per_replica_is_required(self):
        stacked = stack_simulations(make_replicas(2))
        force = SMDPullingForce(self.BASE, np.arange(4),
                                np.ones(4))
        with pytest.raises(ValueError):
            force.compute(stacked.system.positions,
                          np.zeros_like(stacked.system.positions))

    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_stacked_trap_and_recorder_match_solo(self, n_replicas):
        """The one trap and the one recorder on a stack == on each replica
        alone: energies, works and every recorded series."""
        sims = make_replicas(n_replicas)
        stacked = stack_simulations(make_replicas(n_replicas))
        idx = np.arange(4)
        masses = sims[0].system.masses
        protos = [self.BASE.with_start(0.5 * r) for r in range(n_replicas)]
        recorders = []
        for sim, smd in [
            (stacked, SMDPullingForce(protos, idx, masses)),
            *((sim, SMDPullingForce(proto, idx, masses))
              for sim, proto in zip(sims, protos)),
        ]:
            sim.forces.append(smd)
            sim.invalidate_caches()
            recorders.append(SMDWorkRecorder(smd, record_stride=5))
            sim.add_reporter(recorders[-1])
            sim.step(40)
        assert_stack_equals_solo(stacked, sims)
        together, *alone = recorders
        assert together.arrays()["works"].shape == (n_replicas, 8)
        assert all(isinstance(solo.work, float) for solo in alone)
        np.testing.assert_array_equal(
            together.work, [solo.work for solo in alone])
        for r, solo in enumerate(alone):
            for name, series in solo.arrays().items():
                expected = together.arrays()[name]
                np.testing.assert_array_equal(
                    series, expected if name == "times" else expected[r])


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

    @pytest.mark.parametrize("kernel, shape", [("vectorized", (3, 4, 3)),
                                               ("reference", (4, 3))])
    def test_stack_never_evaluates_replica_by_replica(self, monkeypatch,
                                                      kernel, shape):
        """Every term on the translocation force stack (the pore and
        membrane fields included) and the trap are ``stackable``: the
        default run hands every force evaluation the whole stack and never
        falls back to one call per replica; the oracle only ever sees one
        replica."""
        from repro.md import engine, forces, kernels, nonbonded

        fallbacks, shapes = [], set()
        compute_forces = Simulation.compute_forces

        def spy(self, positions, out):
            shapes.add(positions.shape)
            return compute_forces(self, positions, out)

        def fallback(compute, positions, out):
            fallbacks.append(compute)
            return kernels.per_replica(compute, positions, out)

        monkeypatch.setattr(Simulation, "compute_forces", spy)
        for module in (engine, forces, nonbonded):
            monkeypatch.setattr(module, "per_replica", fallback)
        proto = PullingProtocol(kappa_pn=500.0, velocity=100.0, distance=1.0,
                                start_z=0.0, equilibration_ns=0.001)
        run_pulling_ensemble_3d(proto, n_samples=3, n_bases=4, n_records=3,
                                seed=5, kernel=kernel)
        assert shapes == {shape} and not fallbacks
