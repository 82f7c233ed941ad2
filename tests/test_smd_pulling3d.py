"""Tests for the 3-D SMD pulling force and work recorder."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import (
    HarmonicRestraintForce,
    LangevinBAOAB,
    ParticleSystem,
    Simulation,
)
from repro.smd import PullingProtocol, SMDPullingForce, SMDWorkRecorder
from repro.units import timestep_fs


def make_smd_sim(kappa_pn=100.0, velocity=100.0, n=3, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(scale=0.5, size=(n, 3))
    system = ParticleSystem(pos, np.full(n, 100.0))
    proto = PullingProtocol(kappa_pn=kappa_pn, velocity=velocity, distance=5.0,
                            start_z=float((pos.mean(axis=0))[2]))
    smd = SMDPullingForce(proto, np.arange(n), system.masses)
    restraint = HarmonicRestraintForce(np.arange(n), pos.copy(), k=0.5)
    sim = Simulation(system, [restraint, smd],
                     LangevinBAOAB(timestep_fs(10.0), friction=100.0, seed=seed + 1))
    return sim, smd, proto


class TestSMDPullingForce:
    def test_coordinate_is_weighted_com(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        masses = np.array([1.0, 3.0])
        proto = PullingProtocol(kappa_pn=100.0, velocity=1.0, start_z=0.0)
        smd = SMDPullingForce(proto, np.array([0, 1]), masses)
        assert smd.coordinate(pos) == pytest.approx(1.5)

    def test_force_distributed_by_mass(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        masses = np.array([1.0, 3.0])
        proto = PullingProtocol(kappa_pn=100.0, velocity=1.0, start_z=1.0)
        smd = SMDPullingForce(proto, np.array([0, 1]), masses)
        forces = np.zeros((2, 3))
        smd.compute(pos, forces)
        # Total force = kappa * stretch; split 1:3.
        total = smd.kappa * 1.0
        assert forces[0, 2] == pytest.approx(total * 0.25)
        assert forces[1, 2] == pytest.approx(total * 0.75)

    def test_energy_harmonic_in_stretch(self):
        pos = np.zeros((1, 3))
        proto = PullingProtocol(kappa_pn=100.0, velocity=1.0, start_z=2.0)
        smd = SMDPullingForce(proto, np.array([0]), np.array([1.0]))
        e = smd.compute(pos, np.zeros((1, 3)))
        assert e == pytest.approx(0.5 * smd.kappa * 4.0)

    def test_trap_advances_with_time(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=10.0, distance=5.0, start_z=0.0)
        smd = SMDPullingForce(proto, np.array([0]), np.array([1.0]))
        smd.set_time(0.2)
        assert smd.trap_position == pytest.approx(2.0)
        with pytest.raises(ConfigurationError):
            smd.set_time(-1.0)

    def test_needs_atoms_and_axis(self):
        proto = PullingProtocol(kappa_pn=100.0, velocity=1.0)
        with pytest.raises(ConfigurationError):
            SMDPullingForce(proto, np.zeros(0, dtype=np.intp), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            SMDPullingForce(proto, np.array([0]), np.array([1.0]), axis=(0, 0, 0))


    def test_pulled_atoms_are_distinct(self):
        """The trap adds its force with one indexed add, which counts a
        repeated atom once: a repeated atom is refused up front."""
        proto = PullingProtocol(kappa_pn=100.0, velocity=1.0)
        with pytest.raises(ConfigurationError, match="distinct"):
            SMDPullingForce(proto, np.array([0, 1, 0]), np.ones(2))


class TestSMDWorkRecorder:
    def test_records_accumulate(self):
        sim, smd, proto = make_smd_sim()
        rec = SMDWorkRecorder(smd, record_stride=10)
        sim.add_reporter(rec)
        sim.step(500)
        arrays = rec.arrays()
        assert arrays["works"].size == 50
        assert np.all(np.diff(arrays["displacements"]) >= 0)

    def test_work_positive_for_uphill_drag(self):
        # Pull against a stiff restraint: work must be clearly positive.
        sim, smd, proto = make_smd_sim(kappa_pn=500.0, velocity=200.0)
        rec = SMDWorkRecorder(smd)
        sim.add_reporter(rec)
        sim.step(2000)
        assert rec.work > 0.0

    def test_coordinate_follows_trap(self):
        sim, smd, proto = make_smd_sim(kappa_pn=1000.0, velocity=50.0)
        rec = SMDWorkRecorder(smd)
        sim.add_reporter(rec)
        sim.step(3000)
        arrays = rec.arrays()
        # Late in the pull the coordinate moved substantially toward the trap.
        moved = arrays["coordinates"][-1] - arrays["coordinates"][0]
        assert moved > 0.5

    def test_record_stride_validation(self):
        sim, smd, _ = make_smd_sim()
        with pytest.raises(ConfigurationError):
            SMDWorkRecorder(smd, record_stride=0)

    def test_work_matches_manual_integral(self):
        """Deterministic check: zero-temperature-like (no noise via huge
        friction? no) — instead freeze dynamics by zero-friction BAOAB
        (velocity Verlet) and immobile atoms: work = kappa * integral
        (lambda - q) dlambda with q constant."""
        from repro.md import LangevinBAOAB

        pos = np.zeros((1, 3))
        system = ParticleSystem(pos, np.array([1e12]))  # effectively immobile
        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0, distance=2.0,
                                start_z=0.0)
        smd = SMDPullingForce(proto, np.array([0]), system.masses)
        sim = Simulation(system, [smd], LangevinBAOAB(1e-5, friction=0.0))
        rec = SMDWorkRecorder(smd)
        sim.add_reporter(rec)
        duration = proto.duration_ns
        sim.step(int(duration / 1e-5))
        # q stays ~0; W = kappa * L^2 / 2.
        expected = smd.kappa * proto.distance**2 / 2.0
        assert rec.work == pytest.approx(expected, rel=0.01)
