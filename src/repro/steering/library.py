"""Client-side steering library — the engine-facing API.

The paper's grid-enablement philosophy (Section V-B): "rather than wholesale
refactoring of codes, grid-enablement should be carried out by interfacing
the application codes to suitable grid middleware through well defined
user-level APIs ... complex parallel code can be grid-enabled without
changing the programming model and with minimal changes to the code."

Accordingly the MD engine knows nothing about steering internals: it calls
:meth:`SteeringClient.poll` and :meth:`SteeringClient.emit_sample` at a
stride (see :meth:`repro.md.engine.Simulation.attach_steering`), and this
client does everything else — steerable/monitored parameter registry,
control handling (pause/resume/stop), checkpoint/clone against a
:class:`~repro.steering.checkpoints.CheckpointTree`, applying steering
forces, and publishing data samples/frames to subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..errors import SteeringError
from ..md.external import SteeringForce
from .checkpoints import CheckpointTree
from .messages import ControlAction, MessageType, SteeringMessage
from .services import ServiceConnection

__all__ = ["SteerableParam", "SteeringClient"]


@dataclass
class SteerableParam:
    """A named parameter exposed through the steering API.

    ``getter`` reads the live value; ``setter`` (optional) makes the
    parameter steerable rather than monitored-only.
    """

    name: str
    getter: Callable[[], Any]
    setter: Optional[Callable[[Any], None]] = None

    @property
    def steerable(self) -> bool:
        return self.setter is not None


class SteeringClient:
    """The simulation side of the steering framework.

    Parameters
    ----------
    connection:
        Binding to the simulation's steering service.
    steering_force:
        Optional :class:`~repro.md.external.SteeringForce` term in the
        simulation's force stack; STEER_FORCE messages are applied to it.
    """

    def __init__(
        self,
        connection: ServiceConnection,
        steering_force: Optional[SteeringForce] = None,
    ) -> None:
        self.connection = connection
        #: Lineage name of the client's checkpoints in its private tree.
        self.branch = "main"
        self.tree = CheckpointTree()
        self.steering_force = steering_force
        self._params: Dict[str, SteerableParam] = {}
        self._subscribers: List[str] = []
        self._sample_observables: Dict[str, Callable[[Any], float]] = {}
        self.clones: List[Any] = []
        self.samples_emitted = 0
        self.register_defaults()

    # -- registration ---------------------------------------------------------

    def register_defaults(self) -> None:
        """Built-in monitored parameters every simulation exposes."""
        # Registered lazily against the simulation passed to poll(); these
        # use the most recent simulation reference.
        self._last_sim = None
        self.register_param(SteerableParam("step", lambda: getattr(self._last_sim, "step_count", None)))
        self.register_param(SteerableParam("time_ns", lambda: getattr(self._last_sim, "time", None)))
        self.register_param(
            SteerableParam("potential_energy",
                           lambda: getattr(self._last_sim, "potential_energy", None))
        )

    def register_param(self, param: SteerableParam) -> None:
        if param.name in self._params:
            raise SteeringError(f"parameter {param.name!r} already registered")
        self._params[param.name] = param

    def register_observable(self, name: str, func: Callable[[Any], float]) -> None:
        """Add a quantity published with every emitted data sample."""
        if name in self._sample_observables:
            raise SteeringError(f"observable {name!r} already registered")
        self._sample_observables[name] = func

    def subscribe(self, component: str) -> None:
        """Add a component (visualizer, steerer) to the sample feed."""
        if component in self._subscribers:
            raise SteeringError(f"{component!r} already subscribed")
        self._subscribers.append(component)

    # -- engine hooks ------------------------------------------------------------

    def poll(self, simulation) -> None:
        """Process pending steering messages (engine hook)."""
        self._last_sim = simulation
        for msg in self.connection.receive():
            self._dispatch(simulation, msg)

    def emit_sample(self, simulation) -> None:
        """Publish monitored values to all subscribers (engine hook)."""
        self._last_sim = simulation
        if not self._subscribers:
            return
        payload = {
            "step": simulation.step_count,
            "time_ns": simulation.time,
            "potential_energy": simulation.potential_energy,
        }
        for name, func in self._sample_observables.items():
            payload[name] = float(func(simulation))
        for component in self._subscribers:
            self.connection.send(
                SteeringMessage(
                    MessageType.DATA_SAMPLE,
                    sender=self.connection.component,
                    recipient=component,
                    payload=dict(payload),
                )
            )
        self.samples_emitted += 1

    def emit_frame(self, simulation) -> None:
        """Publish a coordinate frame (heavier than a data sample)."""
        if not self._subscribers:
            return
        coords = np.array(simulation.system.positions, copy=True)
        for component in self._subscribers:
            self.connection.send(
                SteeringMessage(
                    MessageType.FRAME,
                    sender=self.connection.component,
                    recipient=component,
                    payload={
                        "step": simulation.step_count,
                        "time_ns": simulation.time,
                        "positions": coords,
                    },
                ),
                size_bytes=coords.nbytes + 256,
            )

    # -- message handling ----------------------------------------------------------

    def _dispatch(self, simulation, msg: SteeringMessage) -> None:
        handler = {
            MessageType.PARAM_GET: self._on_param_get,
            MessageType.PARAM_SET: self._on_param_set,
            MessageType.CONTROL: self._on_control,
            MessageType.STEER_FORCE: self._on_steer_force,
        }.get(msg.msg_type)
        if handler is None:
            self._reply(msg.error(self.connection.component,
                                  f"unhandled message type {msg.msg_type.value!r}"))
            return
        handler(simulation, msg)

    def _reply(self, message: SteeringMessage) -> None:
        self.connection.send(message)

    def _on_param_get(self, simulation, msg: SteeringMessage) -> None:
        name = msg.payload.get("name")
        if name is None:
            values = {p.name: p.getter() for p in self._params.values()}
            steerable = [p.name for p in self._params.values() if p.steerable]
            self._reply(
                SteeringMessage(
                    MessageType.PARAM_REPORT,
                    sender=self.connection.component,
                    recipient=msg.sender,
                    payload={"values": values, "steerable": steerable},
                    reply_to=msg.seq,
                )
            )
            return
        param = self._params.get(name)
        if param is None:
            self._reply(msg.error(self.connection.component, f"unknown parameter {name!r}"))
            return
        self._reply(
            SteeringMessage(
                MessageType.PARAM_REPORT,
                sender=self.connection.component,
                recipient=msg.sender,
                payload={"values": {name: param.getter()}},
                reply_to=msg.seq,
            )
        )

    def _on_param_set(self, simulation, msg: SteeringMessage) -> None:
        name = msg.payload.get("name")
        param = self._params.get(name)
        if param is None:
            self._reply(msg.error(self.connection.component, f"unknown parameter {name!r}"))
            return
        if not param.steerable:
            self._reply(msg.error(self.connection.component,
                                  f"parameter {name!r} is monitored-only"))
            return
        try:
            param.setter(msg.payload.get("value"))
        except Exception as exc:  # report, don't kill the simulation
            self._reply(msg.error(self.connection.component, f"set failed: {exc}"))
            return
        self._reply(msg.ack(self.connection.component, name=name))

    def _on_control(self, simulation, msg: SteeringMessage) -> None:
        action = msg.payload.get("action")
        if action == ControlAction.PAUSE:
            simulation.paused = True
            self._reply(msg.ack(self.connection.component, action="pause"))
        elif action == ControlAction.RESUME:
            simulation.paused = False
            self._reply(msg.ack(self.connection.component, action="resume"))
        elif action == ControlAction.STOP:
            simulation.stopped = True
            self._reply(msg.ack(self.connection.component, action="stop"))
        elif action == ControlAction.CHECKPOINT:
            label = msg.payload.get("label", f"step-{simulation.step_count}")
            node = self.tree.commit(self.branch, label, simulation.checkpoint())
            self._reply(msg.ack(self.connection.component, node_id=node.node_id))
        elif action == ControlAction.CLONE:
            label = msg.payload.get("label", f"step-{simulation.step_count}")
            node = self.tree.commit(self.branch, f"clone-source {label}",
                                    simulation.checkpoint())
            branch = msg.payload.get("branch", f"{self.branch}/clone-{node.node_id}")
            self.tree.fork(node.node_id, branch)
            clone = simulation.clone()
            self.clones.append((branch, clone))
            self._reply(msg.ack(self.connection.component,
                                node_id=node.node_id, branch=branch))
        else:
            self._reply(msg.error(self.connection.component,
                                  f"unknown control action {action!r}"))

    def _on_steer_force(self, simulation, msg: SteeringMessage) -> None:
        if self.steering_force is None:
            self._reply(msg.error(self.connection.component,
                                  "simulation has no steering force term"))
            return
        indices = np.asarray(msg.payload["indices"])
        force = np.asarray(msg.payload["force"], dtype=np.float64)
        if indices.size == 0:
            self.steering_force.clear()
        else:
            self.steering_force.apply(indices, force)
        simulation.invalidate_caches()
        self._reply(msg.ack(self.connection.component, applied=bool(indices.size)))
