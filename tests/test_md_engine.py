"""Tests for the Simulation engine: stepping, reporters, checkpoint, clone."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.md import (
    HarmonicRestraintForce,
    LangevinBAOAB,
    ParticleSystem,
    Simulation,
    capture,
    restore,
)
from repro.units import timestep_fs


def make_sim(n=4, dt_fs=1.0, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    system = ParticleSystem(pos, np.full(n, 10.0))
    f = HarmonicRestraintForce(np.arange(n), pos.copy(), k=5.0)
    return Simulation(system, [f], LangevinBAOAB(timestep_fs(dt_fs), 10.0, seed=seed + 1))


class TestStepping:
    def test_requires_forces(self):
        system = ParticleSystem(np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ConfigurationError):
            Simulation(system, [], LangevinBAOAB(1e-6, 1.0))

    def test_step_advances_time(self):
        sim = make_sim()
        sim.step(10)
        assert sim.step_count == 10
        assert sim.time == pytest.approx(10 * sim.integrator.dt)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sim().step(-1)

    def test_run_until(self):
        sim = make_sim()
        sim.run_until(5e-6)
        assert sim.time == pytest.approx(5e-6, rel=1e-3)
        with pytest.raises(ConfigurationError):
            sim.run_until(1e-6)

    def test_stopped_halts(self):
        sim = make_sim()
        sim.stopped = True
        sim.step(10)
        assert sim.step_count == 0

    def test_validation_catches_explosion(self):
        sim = make_sim()
        sim.validate_every = 5
        sim.system.positions[0, 0] = np.nan
        with pytest.raises(SimulationError):
            sim.step(10)

    def test_total_energy_includes_kinetic(self):
        sim = make_sim()
        sim.system.initialize_velocities(seed=3)
        assert sim.total_energy() == pytest.approx(
            sim.potential_energy + sim.system.kinetic_energy()
        )


class TestReporters:
    def test_reporter_called_each_step(self):
        sim = make_sim()
        calls = []
        sim.add_reporter(lambda s: calls.append(s.step_count))
        sim.step(7)
        assert calls == list(range(1, 8))

    def test_multiple_reporters_ordered(self):
        sim = make_sim()
        order = []
        sim.add_reporter(lambda s: order.append("a"))
        sim.add_reporter(lambda s: order.append("b"))
        sim.step(1)
        assert order == ["a", "b"]


class TestCheckpoint:
    def test_roundtrip(self):
        sim = make_sim(seed=5)
        sim.step(20)
        ck = sim.checkpoint()
        pos = sim.system.positions.copy()
        sim.step(30)
        sim.restore(ck)
        assert sim.step_count == 20
        np.testing.assert_array_equal(sim.system.positions, pos)

    def test_restore_wrong_particle_count(self):
        sim1 = make_sim(n=4)
        sim2 = make_sim(n=5)
        with pytest.raises(CheckpointError):
            sim2.restore(sim1.checkpoint())

    def test_restore_bad_format(self):
        sim = make_sim()
        ck = sim.checkpoint()
        ck["format"] = 99
        with pytest.raises(CheckpointError):
            sim.restore(ck)

    def test_capture_restore_functions(self):
        sim = make_sim(seed=6)
        sim.step(5)
        ck = capture(sim)
        sim.step(5)
        restore(sim, ck)
        assert sim.step_count == 5


class TestClone:
    def test_clone_independent_state(self):
        sim = make_sim(seed=7)
        sim.step(10)
        clone = sim.clone()
        assert clone.step_count == 10
        sim.step(10)
        assert clone.step_count == 10
        assert sim.step_count == 20

    def test_clone_diverges_with_different_noise(self):
        sim = make_sim(seed=8)
        sim.step(5)
        clone = sim.clone()
        # The clone shares the integrator (and its RNG), so stepping them
        # alternately consumes different noise: trajectories diverge.
        sim.step(50)
        clone.step(50)
        assert not np.allclose(sim.system.positions, clone.system.positions)

    def test_clone_does_not_copy_reporters(self):
        sim = make_sim()
        sim.add_reporter(lambda s: None)
        assert sim.clone().reporters == []


class TestSteeringAttachment:
    class FakeClient:
        def __init__(self):
            self.polls = 0
            self.emits = 0

        def poll(self, sim):
            self.polls += 1

        def emit_sample(self, sim):
            self.emits += 1

    def test_poll_stride(self):
        sim = make_sim()
        client = self.FakeClient()
        sim.attach_steering(client, stride=5)
        sim.step(20)
        assert client.polls == 4
        assert client.emits == 4

    def test_bad_stride(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.attach_steering(self.FakeClient(), stride=0)
