"""The steerer component — the scientist's control surface.

Wraps request/response over the steering service: list and set parameters,
pause/resume/stop, request checkpoints and clones.  Because transport is
message-based and the simulation polls at a stride, every request is
asynchronous; :meth:`Steerer.drain` collects replies that have arrived and
files them by request sequence number.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SteeringError
from .messages import ControlAction, MessageType, SteeringMessage
from .services import ServiceConnection

__all__ = ["Steerer"]


class Steerer:
    """Issues steering requests to a simulation component and tracks replies."""

    def __init__(self, connection: ServiceConnection, target: str) -> None:
        self.connection = connection
        self.target = target
        self._replies: Dict[int, SteeringMessage] = {}

    # -- requests ---------------------------------------------------------------

    def request_params(self) -> int:
        """Ask for every parameter value; returns the request seq."""
        msg = SteeringMessage.param_get(self.connection.component, self.target)
        self.connection.send(msg)
        return msg.seq

    def set_param(self, name: str, value: Any) -> int:
        msg = SteeringMessage.param_set(self.connection.component, self.target, name, value)
        self.connection.send(msg)
        return msg.seq

    def pause(self) -> int:
        return self._control(ControlAction.PAUSE)

    def resume(self) -> int:
        return self._control(ControlAction.RESUME)

    def stop(self) -> int:
        return self._control(ControlAction.STOP)

    def checkpoint(self, label: Optional[str] = None) -> int:
        extra = {} if label is None else {"label": label}
        return self._control(ControlAction.CHECKPOINT, **extra)

    def clone(self, branch: Optional[str] = None) -> int:
        extra: Dict[str, Any] = {}
        if branch is not None:
            extra["branch"] = branch
        return self._control(ControlAction.CLONE, **extra)

    def _control(self, action: ControlAction, **payload: Any) -> int:
        msg = SteeringMessage.control(self.connection.component, self.target,
                                      action, **payload)
        self.connection.send(msg)
        return msg.seq

    # -- replies ---------------------------------------------------------------

    def drain(self) -> int:
        """Collect arrived messages; returns how many were received.
        Unsolicited ones (data samples) are not kept."""
        msgs = self.connection.receive()
        for m in msgs:
            if m.reply_to is not None:
                self._replies[m.reply_to] = m
        return len(msgs)

    def reply_for(self, seq: int) -> Optional[SteeringMessage]:
        """The reply to a given request, if it has arrived."""
        self.drain()
        return self._replies.get(seq)

    def expect_ack(self, seq: int) -> SteeringMessage:
        """The reply for ``seq``, asserting it is an ACK."""
        reply = self.reply_for(seq)
        if reply is None:
            raise SteeringError(f"no reply yet for request #{seq}")
        if reply.msg_type is MessageType.ERROR:
            raise SteeringError(f"request #{seq} failed: {reply.payload.get('reason')}")
        return reply
