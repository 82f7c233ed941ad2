"""Haptic devices and the scripted scientist.

Paper Section II: "we make use of haptic devices within the framework for
the first time as if they were just additional computing resources"; Section
III: "IMD simulations are then extended to include haptic devices to get an
estimate of force values as well as to determine suitable constraints to
place."

:class:`HapticDevice` models the instrument: a bounded force output and
force-feedback recording (the felt spring force is how the
scientist estimates force scales).  :class:`ScriptedUser` replaces the human
in the loop: it reads the latest rendered frame, decides a steering force
with a proportional-control policy toward a target station, and reacts with
human-scale latency and motor noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, as_generator
from ..steering.visualizer import RenderedFrame

__all__ = ["HapticDevice", "ScriptedUser"]


@dataclass
class HapticDevice:
    """A force-feedback instrument in the steering loop."""

    feedback_log: List[Tuple[float, float]] = field(default_factory=list)

    #: Hardware force ceiling mapped into simulation units (kcal/mol/A).
    MAX_FORCE = 20.0

    def clamp(self, force_vector: np.ndarray) -> np.ndarray:
        """Clip a requested force to the device ceiling (preserving direction)."""
        f = np.asarray(force_vector, dtype=np.float64)
        mag = float(np.linalg.norm(f))
        if mag <= self.MAX_FORCE or mag == 0.0:
            return f
        return f * (self.MAX_FORCE / mag)

    def feel(self, time_s: float, force_magnitude: float) -> None:
        """Record force feedback presented to the user's hand."""
        self.feedback_log.append((time_s, float(force_magnitude)))

    def felt_force_range(self) -> Tuple[float, float]:
        """(min, max) felt force — the "estimate of force values" output."""
        if not self.feedback_log:
            return (0.0, 0.0)
        mags = [m for _, m in self.feedback_log]
        return (min(mags), max(mags))


class ScriptedUser:
    """A deterministic stand-in for the scientist at the haptic desk.

    Policy: pull the DNA's centre of mass toward ``target_z`` along the pore
    axis with gain :attr:`GAIN`, clamped by the device, with
    ``reaction_time_s`` latency and multiplicative motor noise.
    """

    #: Steering force per A of error (kcal/mol/A^2).
    GAIN = 0.5

    def __init__(
        self,
        device: HapticDevice,
        target_z: float,
        reaction_time_s: float = 0.25,
        motor_noise: float = 0.1,
        seed: SeedLike = None,
    ) -> None:
        if reaction_time_s < 0 or motor_noise < 0:
            raise ConfigurationError("invalid user-model parameters")
        self.device = device
        self.target_z = float(target_z)
        self.reaction_time_s = float(reaction_time_s)
        self.motor_noise = float(motor_noise)
        self.rng = as_generator(seed)
        self.actions: List[Tuple[float, np.ndarray]] = []

    def react(self, frame: RenderedFrame, now_s: float) -> Tuple[float, np.ndarray]:
        """Decide a steering force from a rendered frame.

        Returns ``(ready_time, force_vector)``: the user's command is ready
        ``reaction_time_s`` after seeing the frame.
        """
        error = self.target_z - float(frame.com[2])
        raw = np.array([0.0, 0.0, self.GAIN * error], dtype=np.float64)
        if self.motor_noise > 0:
            raw *= 1.0 + self.motor_noise * self.rng.standard_normal()
        force = self.device.clamp(raw)
        ready = now_s + self.reaction_time_s
        self.actions.append((ready, force))
        return ready, force
