"""Tests for the IMD closed loop: the paper's QoS claims."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.imd import IMDSession
from repro.md import SteeringForce
from repro.net import (
    CAMPUS_LAN,
    DEGRADED_INTERNET,
    LIGHTPATH,
    PRODUCTION_INTERNET,
)
from repro.pore import build_translocation_simulation


def make_session(qos, seed=3, **kw):
    # 50 steps x 2 ms = 100 ms compute per frame: the transatlantic RTT
    # (~82 ms incl. render) fits inside one frame of pipeline.
    return IMDSession(build_translocation_simulation(n_bases=6, seed=42), qos,
                      seed=seed, user_seed=7, **kw)


class TestSessionMechanics:
    def test_report_fields(self):
        rep = make_session(LIGHTPATH).run(n_frames=20)
        assert rep.n_frames == 20
        assert rep.compute_time == pytest.approx(20 * 50 * 2e-3)
        assert rep.wall_time >= rep.compute_time - 1e-12
        assert len(rep.frame_stalls) == 20

    def test_simulation_actually_advances(self):
        sess = make_session(LIGHTPATH)
        sess.run(n_frames=10)
        assert sess.simulation.step_count == 500

    def test_user_forces_reach_simulation(self):
        sess = make_session(LIGHTPATH)
        sess.run(n_frames=20)
        assert sess.steering_force.active

    def test_session_owns_one_steering_force(self):
        ts = build_translocation_simulation(n_bases=6, seed=42)
        sess = IMDSession(ts, LIGHTPATH, seed=3, user_seed=7)
        steering = [f for f in ts.simulation.forces
                    if isinstance(f, SteeringForce)]
        assert steering == [sess.steering_force]
        sess.run(n_frames=20)
        positions = ts.simulation.system.positions
        felt = np.zeros_like(positions)
        sess.steering_force.compute(positions, felt)
        np.testing.assert_array_equal(np.flatnonzero(felt.any(axis=1)),
                                      ts.dna_indices)

    def test_validation(self):
        sess = make_session(LIGHTPATH)
        with pytest.raises(ConfigurationError):
            sess.run(n_frames=0)
        with pytest.raises(ConfigurationError):
            make_session(LIGHTPATH, window=0)

    def test_deterministic(self):
        a = make_session(PRODUCTION_INTERNET, seed=5).run(30)
        b = make_session(PRODUCTION_INTERNET, seed=5).run(30)
        assert a.wall_time == b.wall_time
        assert a.stall_time == b.stall_time


class TestQoSOrdering:
    """The paper's core networking claim, as assertions."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for name, qos in [("campus", CAMPUS_LAN), ("lightpath", LIGHTPATH),
                          ("production", PRODUCTION_INTERNET),
                          ("degraded", DEGRADED_INTERNET)]:
            out[name] = make_session(qos).run(n_frames=80)
        return out

    def test_lightpath_no_slowdown(self, reports):
        # High-QoS network: the simulation never waits.
        assert reports["lightpath"].slowdown < 1.05

    def test_production_internet_slows_simulation(self, reports):
        assert reports["production"].slowdown > 1.1

    def test_degraded_is_worse(self, reports):
        assert reports["degraded"].slowdown > reports["production"].slowdown

    def test_stall_fraction_ordering(self, reports):
        assert (reports["lightpath"].stall_fraction
                <= reports["production"].stall_fraction
                <= reports["degraded"].stall_fraction)

    def test_fps_degrades(self, reports):
        assert reports["degraded"].fps < reports["lightpath"].fps

    def test_round_trip_tails_grow(self, reports):
        assert (reports["lightpath"].p95_round_trip
                < reports["production"].p95_round_trip
                < reports["degraded"].p95_round_trip)

    def test_wasted_cpu_hours_on_bad_network(self, reports):
        # "not acceptable that the simulation be stalled": the waste exists
        # on the production internet and is absent on the lightpath.
        assert reports["production"].wasted_cpu_hours(256) > 0
        assert reports["lightpath"].wasted_cpu_hours(256) == pytest.approx(0.0)


class TestWindowEffect:
    def test_wider_window_hides_jitter(self):
        tight = make_session(PRODUCTION_INTERNET, window=1).run(60)
        wide = make_session(PRODUCTION_INTERNET, window=8).run(60)
        assert wide.stall_fraction < tight.stall_fraction
