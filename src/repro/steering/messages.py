"""Steering message vocabulary.

The RealityGrid architecture (paper Fig. 2a) has components "communicate by
exchanging messages through intermediate grid services".  This module is the
message layer: a small typed vocabulary covering the steering API's
capabilities — parameter get/set, control (pause/resume/stop), checkpoint &
clone, emitted data samples, frames for the visualizer, and steering forces
from the visualizer/haptic side (the dotted direct arrows of Fig. 2a).
Messages are Python objects passed between in-process components; they are
never serialised, so no outside input reaches them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from ..errors import SteeringError

__all__ = ["MessageType", "ControlAction", "SteeringMessage"]

_seq_counter = itertools.count(1)


class MessageType(Enum):
    """Kinds of messages flowing through the steering services."""

    PARAM_GET = "param_get"
    PARAM_SET = "param_set"
    PARAM_REPORT = "param_report"
    CONTROL = "control"
    STATUS = "status"
    DATA_SAMPLE = "data_sample"
    FRAME = "frame"
    STEER_FORCE = "steer_force"
    ACK = "ack"
    ERROR = "error"


class ControlAction(Enum):
    """Control verbs of the steering API."""

    PAUSE = "pause"
    RESUME = "resume"
    STOP = "stop"
    CHECKPOINT = "checkpoint"
    CLONE = "clone"


@dataclass
class SteeringMessage:
    """One message between steering components.

    Attributes
    ----------
    msg_type:
        Vocabulary entry.
    sender / recipient:
        Component names registered with the service.
    payload:
        Type-specific content (parameter names/values, control action,
        frame data...).  Values must be plain Python/NumPy data.
    reply_to:
        Sequence number of the request this message answers, if any.
    timestamp:
        Logical send time (s); stamped by the service connection.
    seq:
        Globally unique, monotone sequence number (auto-assigned).
    """

    msg_type: MessageType
    sender: str
    recipient: str
    payload: Dict[str, Any] = field(default_factory=dict)
    reply_to: Optional[int] = None
    timestamp: float = 0.0
    seq: int = field(default_factory=lambda: next(_seq_counter))

    def __post_init__(self) -> None:
        if not self.sender or not self.recipient:
            raise SteeringError("messages need both sender and recipient")

    # -- convenience constructors -----------------------------------------------

    @classmethod
    def control(cls, sender: str, recipient: str, action: ControlAction,
                **payload: Any) -> "SteeringMessage":
        return cls(MessageType.CONTROL, sender, recipient,
                   payload={"action": action, **payload})

    @classmethod
    def param_set(cls, sender: str, recipient: str, name: str, value: Any) -> "SteeringMessage":
        return cls(MessageType.PARAM_SET, sender, recipient,
                   payload={"name": name, "value": value})

    @classmethod
    def param_get(cls, sender: str, recipient: str) -> "SteeringMessage":
        """Ask for every parameter value (``"name": None``)."""
        return cls(MessageType.PARAM_GET, sender, recipient,
                   payload={"name": None})

    @classmethod
    def steer_force(cls, sender: str, recipient: str, indices, force_vector) -> "SteeringMessage":
        return cls(MessageType.STEER_FORCE, sender, recipient,
                   payload={"indices": indices, "force": force_vector})

    def ack(self, sender: str, **payload: Any) -> "SteeringMessage":
        """Build an ACK replying to this message."""
        return SteeringMessage(MessageType.ACK, sender, self.sender,
                               payload=payload, reply_to=self.seq)

    def error(self, sender: str, reason: str) -> "SteeringMessage":
        """Build an ERROR replying to this message."""
        return SteeringMessage(MessageType.ERROR, sender, self.sender,
                               payload={"reason": reason}, reply_to=self.seq)

