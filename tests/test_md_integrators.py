"""Tests for the one integrator, LangevinBAOAB: energy conservation and
reversibility at zero friction (velocity Verlet), the thermostat, and the
strongly damped (Brownian) regime."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import (
    FENEBondForce,
    HarmonicRestraintForce,
    LangevinBAOAB,
    ParticleSystem,
    Simulation,
    TopologyBuilder,
)
from repro.units import KB, MASS_TO_KCAL, timestep_fs


def bonded_chain(n=8, seed=0):
    rng = np.random.default_rng(seed)
    pos = np.zeros((n, 3))
    pos[:, 2] = np.arange(n) * 1.0
    pos += rng.normal(scale=0.05, size=pos.shape)
    system = ParticleSystem(pos, np.full(n, 12.0))
    topo = TopologyBuilder(n).add_chain(range(n), k=10.0, r0=3.0).build()
    return system, [FENEBondForce(topo)]


def verlet(dt):
    """Velocity Verlet: BAOAB's O step is the identity at zero friction."""
    return LangevinBAOAB(dt, friction=0.0, seed=0)


class NullForce:
    def compute(self, positions, forces):
        return 0.0


class TestConstruction:
    def test_bad_dt(self):
        for dt in (-1e-6, 0.0):
            with pytest.raises(ConfigurationError):
                LangevinBAOAB(dt, 10.0)

    def test_langevin_bad_friction(self):
        with pytest.raises(ConfigurationError):
            LangevinBAOAB(1e-6, friction=-1.0)

    def test_langevin_bad_temperature(self):
        with pytest.raises(ConfigurationError):
            LangevinBAOAB(1e-6, friction=1.0, temperature=0.0)


class TestVelocityVerlet:
    """Zero friction: the scheme is velocity Verlet (symplectic NVE)."""

    def test_energy_conservation_bonded(self):
        system, forces = bonded_chain()
        system.initialize_velocities(seed=1)
        sim = Simulation(system, forces, verlet(timestep_fs(0.5)))
        e0 = sim.total_energy()
        sim.step(2000)
        e1 = sim.total_energy()
        assert abs(e1 - e0) < 0.02 * max(abs(e0), 1.0)

    def test_time_reversibility(self):
        system, forces = bonded_chain(4, seed=2)
        system.initialize_velocities(seed=3)
        sim = Simulation(system, forces, verlet(timestep_fs(0.5)))
        x0 = system.positions.copy()
        sim.step(100)
        system.velocities[:] *= -1.0
        sim.invalidate_caches()
        sim.step(100)
        np.testing.assert_allclose(system.positions, x0, atol=1e-6)

    def test_harmonic_oscillator_period(self):
        # Single particle in a restraint: period T = 2 pi sqrt(m'/k).
        m, k = 10.0, 50.0
        system = ParticleSystem(np.array([[0.0, 0.0, 1.0]]), np.array([m]))
        f = HarmonicRestraintForce(np.array([0]), np.zeros((1, 3)), k=k)
        period = 2 * np.pi * np.sqrt(m * MASS_TO_KCAL / k)
        dt = period / 2000
        sim = Simulation(system, [f], verlet(dt))
        sim.step(2000)  # one full period
        assert system.positions[0, 2] == pytest.approx(1.0, abs=1e-3)


class TestLangevinBAOAB:
    def test_maintains_target_temperature(self):
        # Starting from the stationary distribution, the thermostat keeps
        # the kinetic temperature at the bath value.
        n = 500
        k = 5.0
        rng = np.random.default_rng(4)
        anchors = rng.normal(size=(n, 3))
        # Positions AND velocities from the stationary distribution.
        spread = np.sqrt(KB * 300.0 / k)
        system = ParticleSystem(anchors + rng.normal(scale=spread, size=(n, 3)),
                                np.full(n, 20.0))
        system.initialize_velocities(seed=44)
        f = HarmonicRestraintForce(np.arange(n), anchors, k=k)
        integ = LangevinBAOAB(timestep_fs(2.0), friction=100.0, temperature=300.0, seed=5)
        sim = Simulation(system, [f], integ)
        temps = []
        for _ in range(10):
            sim.step(300)
            temps.append(system.temperature())
        assert np.mean(temps) == pytest.approx(300.0, rel=0.08)

    def test_heats_cold_start(self):
        # A zero-velocity start must warm toward the bath over ~1/gamma.
        n = 300
        rng = np.random.default_rng(14)
        system = ParticleSystem(rng.normal(size=(n, 3)), np.full(n, 20.0))
        f = HarmonicRestraintForce(np.arange(n), system.positions.copy(), k=5.0)
        integ = LangevinBAOAB(timestep_fs(2.0), friction=2000.0, temperature=300.0, seed=15)
        sim = Simulation(system, [f], integ)
        sim.step(3000)  # 6 ps = 12 / gamma
        assert system.temperature() == pytest.approx(300.0, rel=0.15)

    def test_equipartition_in_harmonic_well(self):
        # <0.5 k x^2> = 0.5 kT per coordinate, starting from stationarity.
        n = 400
        k = 2.0
        kT = KB * 300.0
        rng = np.random.default_rng(66)
        x0 = rng.normal(scale=np.sqrt(kT / k), size=(n, 3))
        system = ParticleSystem(x0, np.full(n, 10.0))
        system.initialize_velocities(seed=67)
        f = HarmonicRestraintForce(np.arange(n), np.zeros((n, 3)), k=k)
        integ = LangevinBAOAB(timestep_fs(5.0), friction=200.0, temperature=300.0, seed=6)
        sim = Simulation(system, [f], integ)
        samples = []
        for _ in range(20):
            sim.step(300)
            samples.append(np.mean(system.positions**2))
        assert np.mean(samples) == pytest.approx(kT / k, rel=0.1)

    def test_zero_friction_reduces_to_verlet(self):
        system, forces = bonded_chain(4, seed=7)
        system.initialize_velocities(seed=8)
        dt = timestep_fs(0.5)
        x, v = system.positions.copy(), system.velocities.copy()
        inv_m = 1.0 / system.kinetic_masses[:, None]
        Simulation(system, forces, LangevinBAOAB(dt, friction=0.0, seed=9)).step(50)

        f = np.zeros_like(x)
        forces[0].compute(x, f)
        for _ in range(50):
            v += 0.5 * dt * f * inv_m
            x += dt * v
            f[:] = 0.0
            forces[0].compute(x, f)
            v += 0.5 * dt * f * inv_m
        np.testing.assert_allclose(system.positions, x, atol=1e-9)
        np.testing.assert_allclose(system.velocities, v, rtol=1e-9)

    def test_deterministic_with_seed(self):
        s1, f1 = bonded_chain(4, seed=10)
        s2, f2 = bonded_chain(4, seed=10)
        dt = timestep_fs(1.0)
        Simulation(s1, f1, LangevinBAOAB(dt, 10.0, seed=11)).step(100)
        Simulation(s2, f2, LangevinBAOAB(dt, 10.0, seed=11)).step(100)
        np.testing.assert_array_equal(s1.positions, s2.positions)

    def test_steered_temperature_reaches_the_next_step(self):
        """The per-particle factors are bound once, yet a temperature set
        between steps (a steerable parameter) drives the very next step
        exactly as an integrator built at that temperature would."""
        dt = timestep_fs(1.0)
        steered_sys, forces = bonded_chain(4, seed=12)
        steered = LangevinBAOAB(dt, 10.0, temperature=300.0, seed=13)
        sim = Simulation(steered_sys, forces, steered)
        sim.step(20)
        fresh_sys, _ = bonded_chain(4, seed=12)
        fresh_sys.restore(steered_sys.snapshot())
        fresh = LangevinBAOAB(dt, 10.0, temperature=600.0)
        fresh.rng.bit_generator.state = steered.rng.bit_generator.state
        steered.temperature = 600.0
        sim.step(5)
        Simulation(fresh_sys, forces, fresh).step(5)
        np.testing.assert_array_equal(steered_sys.positions,
                                      fresh_sys.positions)
        np.testing.assert_array_equal(steered_sys.velocities,
                                      fresh_sys.velocities)


class TestBrownianDynamics:
    """Strong friction: the overdamped regime, with drag ``zeta = m gamma``
    and diffusion constant ``kB T / zeta``."""

    def test_free_diffusion_msd(self):
        # MSD = 6 D t for free diffusion, once t >> 1/gamma; gamma dt = 0.1
        # keeps BAOAB's free-particle diffusion within 0.1 % of kT/zeta.
        n, m, zeta, T = 2000, 100.0, 0.01, 300.0
        gamma = zeta / (m * MASS_TO_KCAL)
        system = ParticleSystem(np.zeros((n, 3)), np.full(n, m))
        system.initialize_velocities(seed=11)
        dt = 0.1 / gamma
        integ = LangevinBAOAB(dt, friction=gamma, temperature=T, seed=12)
        sim = Simulation(system, [NullForce()], integ)
        n_steps = 4000
        sim.step(n_steps)
        msd = np.mean(np.sum(system.positions**2, axis=1))
        D = KB * T / zeta
        assert msd == pytest.approx(6 * D * n_steps * dt, rel=0.1)

    def test_boltzmann_distribution_in_well(self):
        n = 3000
        k = 1.0
        m, zeta = 100.0, 0.01
        system = ParticleSystem(np.zeros((n, 3)), np.full(n, m))
        f = HarmonicRestraintForce(np.arange(n), np.zeros((n, 3)), k=k)
        integ = LangevinBAOAB(2e-4, friction=zeta / (m * MASS_TO_KCAL),
                              temperature=300.0, seed=13)
        sim = Simulation(system, [f], integ)
        sim.step(3000)
        var = np.var(system.positions)
        kT = KB * 300.0
        assert var == pytest.approx(kT / k, rel=0.08)
