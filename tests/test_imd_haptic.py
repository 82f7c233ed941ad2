"""Tests for haptic devices and the scripted user."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.imd import HapticDevice, ScriptedUser
from repro.steering.visualizer import RenderedFrame


def frame(com_z=0.0, t=1.0):
    return RenderedFrame(step=10, time_ns=0.1, received_at=t, n_particles=5,
                        com=np.array([0.0, 0.0, com_z]),
                        extent=np.ones(3))


class TestHapticDevice:
    def test_clamp_preserves_direction(self):
        d = HapticDevice()
        f = d.clamp(np.array([0.0, 0.0, 100.0]))
        np.testing.assert_allclose(f, [0.0, 0.0, HapticDevice.MAX_FORCE])

    def test_no_clamp_below_max(self):
        d = HapticDevice()
        f = d.clamp(np.array([0.0, 3.0, 4.0]))
        np.testing.assert_allclose(f, [0.0, 3.0, 4.0])

    def test_zero_force_safe(self):
        d = HapticDevice()
        np.testing.assert_allclose(d.clamp(np.zeros(3)), 0.0)

    def test_feedback_range(self):
        d = HapticDevice()
        assert d.felt_force_range() == pytest.approx((0.0, 0.0))
        d.feel(0.0, 3.0)
        d.feel(1.0, 7.0)
        assert d.felt_force_range() == pytest.approx((3.0, 7.0))


class TestScriptedUser:
    def test_pulls_toward_target(self):
        user = ScriptedUser(HapticDevice(), target_z=-10.0, motor_noise=0.0,
                            seed=0)
        ready, force = user.react(frame(com_z=0.0), now_s=1.0)
        assert force[2] < 0  # downward, toward the target
        assert force[2] == pytest.approx(-10.0 * ScriptedUser.GAIN)

    def test_reaction_latency(self):
        user = ScriptedUser(HapticDevice(), target_z=0.0, reaction_time_s=0.3,
                            motor_noise=0.0, seed=1)
        ready, _ = user.react(frame(), now_s=2.0)
        assert ready == pytest.approx(2.3)

    def test_motor_noise_varies_commands(self):
        user = ScriptedUser(HapticDevice(), target_z=-10.0, motor_noise=0.3,
                            seed=2)
        forces = [user.react(frame(), now_s=float(i))[1][2] for i in range(20)]
        assert np.std(forces) > 0.1

    def test_force_clamped_by_device(self):
        user = ScriptedUser(HapticDevice(), target_z=-100.0, motor_noise=0.0,
                            seed=3)
        _, force = user.react(frame(), now_s=0.0)
        assert np.linalg.norm(force) <= HapticDevice.MAX_FORCE + 1e-9

    def test_actions_logged(self):
        user = ScriptedUser(HapticDevice(), target_z=-5.0, seed=4)
        user.react(frame(), now_s=0.0)
        user.react(frame(), now_s=1.0)
        assert len(user.actions) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScriptedUser(HapticDevice(), target_z=0.0, motor_noise=-0.1)
