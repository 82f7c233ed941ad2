"""The interactive-MD closed loop.

Paper Section III: "In interactive mode, the user sends data back to the
simulation running on a remote supercomputer, via the visualizer, so that
the simulation can compute the changes introduced by the user.  When using
256 processors (or more) of an expensive high-end supercomputer it is not
acceptable that the simulation be stalled (or even slowed down) due to
unreliable communication between the simulation and the visualization."

:class:`IMDSession` runs that loop on logical time:

1. the simulation computes ``steps_per_frame`` MD steps (costing modelled
   wall time on the remote machine),
2. ships a frame to the visualizer over the *down* channel,
3. the visualizer renders and immediately returns a control message (the
   haptic stream's current force; the scripted user's *reaction time*
   delays which force value the stream carries, not the message cadence),
4. the loop is **pipelined with flow control**: the simulation may run at
   most ``window`` frames ahead of the last control it has received —
   exactly the reliable bi-directional dependency of the paper.  On a
   clean network controls keep pace and the simulation never waits; when
   jitter, loss and retransmission timeouts delay a control past the
   window, the simulation stalls on its expensive allocation.

The same loop with lightpath vs production-internet channels is the EXP-QOS
benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..md.engine import Simulation
from ..md.external import SteeringForce
from ..net.channel import ReliableChannel
from ..net.qos import QoSSpec
from ..obs import Obs, as_obs
from ..pore.assembly import TranslocationSystem
from ..rng import SeedLike, as_generator, spawn
from .haptic import HapticDevice, ScriptedUser
from .metrics import InteractivityReport

__all__ = ["IMDSession"]

#: Modelled wall seconds per MD step on the remote machine (a 300k-atom
#: system on 256 processors manages ~2 ms/step in 2005).
SECONDS_PER_STEP = 2.0e-3
#: Message sizes of the two directions: frames are heavy, controls light.
FRAME_BYTES = 200_000
CONTROL_BYTES = 512
#: Visualizer render time per frame.
RENDER_TIME_S = 0.02


class IMDSession:
    """Closed-loop interactive MD over a simulated network.

    The session owns its steering loop: it appends a
    :class:`~repro.md.external.SteeringForce` to the system's force stack,
    and its scripted scientist (``session.user``, pulling the DNA toward
    z = -20 A through a :class:`~repro.imd.haptic.HapticDevice`) steers
    ``system.dna_indices``.

    Parameters
    ----------
    system:
        The 3-D translocation system to steer.
    qos:
        Link characteristics used for both directions.
    steps_per_frame:
        MD steps computed between frames.
    window:
        Flow-control window: how many frames the simulation may compute
        beyond the newest control received.  The default of 2 models the
        tight coupling of haptic steering: latency physics (one frame in
        flight) is absorbed, jitter/loss spikes are not.
    seed:
        Any :data:`~repro.rng.SeedLike` — an int, a
        :class:`numpy.random.Generator`, a ``SeedSequence`` or ``None`` —
        normalized via :func:`repro.rng.as_generator` (the package-wide
        seeding convention); both channels derive independent streams.
    user_seed:
        Seed of the scripted scientist's motor noise.
    obs:
        Optional instrumentation handle (see :mod:`repro.obs`).  Per-frame
        stalls land in the ``imd.frame_stall_s`` histogram, cumulative
        compute/stall time in ``imd.*_s`` counters, and both channels
        report under ``net.*.imd.down`` / ``net.*.imd.up``.
    """

    def __init__(
        self,
        system: TranslocationSystem,
        qos: QoSSpec,
        *,
        steps_per_frame: int = 50,
        window: int = 2,
        seed: SeedLike = None,
        user_seed: SeedLike = None,
        obs: Optional[Obs] = None,
    ) -> None:
        if steps_per_frame <= 0:
            raise ConfigurationError("steps_per_frame must be positive")
        if window < 1:
            raise ConfigurationError("window must be at least 1")
        self.simulation = system.simulation
        self.dna_indices = system.dna_indices
        self.steering_force = SteeringForce(self.simulation.system.n)
        self.simulation.forces.append(self.steering_force)
        self.user = ScriptedUser(HapticDevice(), target_z=-20.0, seed=user_seed)
        self._obs = as_obs(obs)
        rng = as_generator(seed)
        down_rng, up_rng = spawn(rng, 2)
        # sim -> viz and viz -> sim legs of the closed loop.
        self.down = ReliableChannel(qos, seed=down_rng, obs=obs, name="imd.down")
        self.up = ReliableChannel(qos, seed=up_rng, obs=obs, name="imd.up")
        self.steps_per_frame = int(steps_per_frame)
        self.window = int(window)

    def run(self, n_frames: int) -> InteractivityReport:
        """Run the pipelined closed loop for ``n_frames`` exchanges."""
        if n_frames <= 0:
            raise ConfigurationError("n_frames must be positive")
        compute_time = 0.0
        stall_time = 0.0
        frame_stalls = []
        round_trips = []
        # control_arrivals[k] = when the control answering frame k reached
        # the simulation.  User force commands await application in
        # (ready_time, force) send order; the newest ripe command wins.
        control_arrivals: list[float] = []
        pending_commands: list[tuple[float, np.ndarray]] = []

        frame_compute = self.steps_per_frame * SECONDS_PER_STEP
        finish = 0.0
        for k in range(n_frames):
            # Flow control: frame k may only start once the control for
            # frame k - window has arrived.
            gate = k - self.window
            earliest = control_arrivals[gate] if gate >= 0 else 0.0
            start = max(finish, earliest)
            stall = start - finish
            stall_time += stall
            frame_stalls.append(stall)
            if self._obs.enabled:
                self._obs.metrics.observe("imd.frame_stall_s", stall)

            # Apply the newest user force whose command has reached us.
            ripe = [cmd for cmd in pending_commands if cmd[0] <= start]
            if ripe:
                self.steering_force.apply(self.dna_indices, ripe[-1][1])
                self.simulation.invalidate_caches()
                pending_commands = [c for c in pending_commands if c[0] > start]

            # 1. compute the chunk of MD.
            self.simulation.step(self.steps_per_frame)
            finish = start + frame_compute
            compute_time += frame_compute

            # 2. frame to the visualizer; render.
            down = self.down.transmit(finish, FRAME_BYTES)
            viz_time = down.arrival_time + RENDER_TIME_S

            # 3. the haptic stream returns a control immediately; the
            # scripted user's reaction delay decides *which force value*
            # the stream carries once it lands.
            frame = _summarize(self.simulation, self.dna_indices, viz_time)
            ready, force = self.user.react(frame, viz_time)
            self.user.device.feel(ready, float(np.linalg.norm(force)))

            # 4. control returns over the up channel.
            up = self.up.transmit(viz_time, CONTROL_BYTES)
            control_arrivals.append(up.arrival_time)
            round_trips.append(up.arrival_time - finish)
            pending_commands.append((max(up.arrival_time, ready), force))

        # Wall time ends when the last frame's compute finishes (the
        # allocation is released; remaining in-flight controls are moot).
        if self._obs.enabled:
            self._obs.metrics.inc("imd.compute_s", compute_time)
            self._obs.metrics.inc("imd.stall_s", stall_time)
            self._obs.tracer.event(
                "imd.session", n_frames=n_frames, wall_time_s=finish,
                stall_time_s=stall_time,
            )
        return InteractivityReport(
            n_frames=n_frames,
            compute_time=compute_time,
            stall_time=stall_time,
            wall_time=finish,
            frame_stalls=frame_stalls,
            round_trip_delays=round_trips,
        )


def _summarize(simulation: Simulation, indices: np.ndarray, received_at: float):
    """Build a RenderedFrame-compatible summary without the full viz stack."""
    from ..steering.visualizer import RenderedFrame

    pos = simulation.system.positions[indices]
    return RenderedFrame(
        step=simulation.step_count,
        time_ns=simulation.time,
        received_at=received_at,
        n_particles=pos.shape[0],
        com=pos.mean(axis=0),
        extent=pos.max(axis=0) - pos.min(axis=0),
    )
