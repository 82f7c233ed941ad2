"""The visualizer component.

Consumes frames and data samples from the simulation and — the key SPICE
configuration (Fig. 2a's dotted arrows) — acts as a *steerer*: "the
visualizer sending messages directly to the simulation, which is used
extensively for interactive simulations", e.g. applying a force to a subset
of atoms picked on screen.

Rendering is modelled, not performed: each consumed frame costs a configured
render time, and the visualizer tracks display lag so the IMD experiments
can report end-to-end interactivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import SteeringError
from .messages import MessageType, SteeringMessage
from .services import ServiceConnection

__all__ = ["Visualizer", "RenderedFrame"]


@dataclass
class RenderedFrame:
    """A frame after 'rendering': summary statistics the user model reads."""

    step: int
    time_ns: float
    received_at: float
    n_particles: int
    com: np.ndarray
    extent: np.ndarray


class Visualizer:
    """Receives frames/samples; can steer the simulation directly.

    Parameters
    ----------
    connection:
        Binding to the service (possibly over a network channel — for the
        direct visualizer-to-simulation path, give this connection the
        lightpath/production QoS under test).
    target:
        The simulation component name to steer.
    render_time_s:
        Wall-clock cost to render one frame (advances the shared clock in
        interactive sessions).
    """

    def __init__(
        self,
        connection: ServiceConnection,
        target: str,
        render_time_s: float = 0.02,
    ) -> None:
        if render_time_s < 0:
            raise SteeringError("render time cannot be negative")
        self.connection = connection
        self.target = target
        self.render_time_s = float(render_time_s)
        self.frames: List[RenderedFrame] = []
        self.samples: List[Dict[str, Any]] = []
        self.frames_rendered = 0

    # -- consumption -------------------------------------------------------------

    def consume(self, advance_clock: bool = False) -> int:
        """Process arrived messages; returns the number consumed.

        With ``advance_clock``, rendering cost advances the service clock —
        used in closed-loop IMD where the visualizer is on the critical path.
        """
        msgs = self.connection.receive()
        for m in msgs:
            if m.msg_type is MessageType.FRAME:
                self._render(m)
                if advance_clock:
                    self.connection.service.clock.advance(self.render_time_s)
            elif m.msg_type is MessageType.DATA_SAMPLE:
                self.samples.append(dict(m.payload))
            # ACK/ERROR replies to our own steering actions are recorded too.
        return len(msgs)

    def _render(self, msg: SteeringMessage) -> None:
        pos = np.asarray(msg.payload["positions"], dtype=np.float64)
        self.frames.append(
            RenderedFrame(
                step=int(msg.payload["step"]),
                time_ns=float(msg.payload["time_ns"]),
                received_at=self.connection.service.clock.now,
                n_particles=pos.shape[0],
                com=pos.mean(axis=0),
                extent=pos.max(axis=0) - pos.min(axis=0),
            )
        )
        self.frames_rendered += 1

    @property
    def latest_frame(self) -> Optional[RenderedFrame]:
        return self.frames[-1] if self.frames else None

    # -- steering (the direct path) -----------------------------------------------

    def send_force(self, indices, force_vector) -> int:
        """Apply a steering force to selected atoms (visualizer-as-steerer)."""
        msg = SteeringMessage.steer_force(
            self.connection.component, self.target, np.asarray(indices),
            np.asarray(force_vector, dtype=np.float64),
        )
        self.connection.send(msg)
        return msg.seq

    def clear_force(self) -> int:
        return self.send_force(np.zeros(0, dtype=np.intp), np.zeros(3))
