"""Intermediate grid services: registry + per-simulation steering service.

The RealityGrid pattern (paper Fig. 2a): components never talk to each other
directly; they post messages to an intermediate service which the recipient
polls.  (The one exception, the visualizer's direct channel to the
simulation, is modelled as just another connection pair with its own QoS.)

A :class:`SteeringService` is the per-simulation mailbox hub; the
:class:`Registry` maps simulation names to services so steerers can find
running jobs — the role of the RealityGrid registry.  Message transport can
be instantaneous (in-process) or carried over
:class:`~repro.net.channel.ReliableChannel` links with a shared
:class:`LogicalClock`, which is how steering latency enters the IMD
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SteeringError
from ..net.channel import ReliableChannel
from .messages import SteeringMessage

__all__ = ["LogicalClock", "SteeringService", "Registry", "ServiceConnection"]


@dataclass
class LogicalClock:
    """Shared logical time source (seconds)."""

    now: float = 0.0

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise SteeringError("clock cannot run backwards")
        self.now += dt
        return self.now


@dataclass(order=True)
class _Pending:
    arrival: float
    seq: int
    message: SteeringMessage = field(compare=False)


class SteeringService:
    """Mailbox hub for one simulation's steering traffic."""

    def __init__(self, name: str, clock: Optional[LogicalClock] = None) -> None:
        self.name = name
        self.clock = clock or LogicalClock()
        self._mailboxes: Dict[str, List[_Pending]] = {}
        self.delivered = 0

    def register_component(self, component: str) -> None:
        if component in self._mailboxes:
            raise SteeringError(f"component {component!r} already registered on {self.name!r}")
        self._mailboxes[component] = []

    def components(self) -> List[str]:
        return sorted(self._mailboxes)

    def post(self, message: SteeringMessage, arrival_time: Optional[float] = None) -> None:
        """Deposit a message for its recipient (arrival defaults to now)."""
        box = self._mailboxes.get(message.recipient)
        if box is None:
            raise SteeringError(
                f"unknown recipient {message.recipient!r} on service {self.name!r}"
            )
        arrival = self.clock.now if arrival_time is None else arrival_time
        box.append(_Pending(arrival=arrival, seq=message.seq, message=message))
        box.sort()

    def collect(self, component: str) -> List[SteeringMessage]:
        """Messages for ``component`` that have arrived by the current time."""
        box = self._mailboxes.get(component)
        if box is None:
            raise SteeringError(f"component {component!r} not registered")
        now = self.clock.now
        ready = [p for p in box if p.arrival <= now]
        if ready:
            box[:] = [p for p in box if p.arrival > now]
            self.delivered += len(ready)
        return [p.message for p in ready]

    def pending_count(self, component: str) -> int:
        box = self._mailboxes.get(component)
        if box is None:
            raise SteeringError(f"component {component!r} not registered")
        return len(box)


class Registry:
    """Maps running-simulation names to their steering services.

    The steerer's entry point: "easily launch, monitor and steer a large
    number of parallel simulations" starts with finding them.
    """

    def __init__(self) -> None:
        self._services: Dict[str, SteeringService] = {}

    def publish(self, service: SteeringService) -> None:
        if service.name in self._services:
            raise SteeringError(f"service {service.name!r} already published")
        self._services[service.name] = service

    def withdraw(self, name: str) -> None:
        if name not in self._services:
            raise SteeringError(f"service {name!r} not published")
        del self._services[name]

    def lookup(self, name: str) -> SteeringService:
        try:
            return self._services[name]
        except KeyError:
            raise SteeringError(f"no service published under {name!r}") from None

    def list_services(self) -> List[str]:
        return sorted(self._services)


class ServiceConnection:
    """A component's binding to a steering service, with optional transport.

    With a :class:`ReliableChannel`, messages arrive after the sampled
    network delay (and the channel records stalls/retransmissions); without
    one, delivery is instantaneous — the in-process fast path used by unit
    tests and batch (non-interactive) runs.
    """

    #: Wire size of a steering message without its own size (bytes).
    MESSAGE_BYTES = 2048

    def __init__(
        self,
        service: SteeringService,
        component: str,
        channel: Optional[ReliableChannel] = None,
    ) -> None:
        self.service = service
        self.component = component
        self.channel = channel
        service.register_component(component)

    def send(self, message: SteeringMessage, size_bytes: Optional[int] = None) -> float:
        """Post a message; returns its arrival time at the service."""
        message.timestamp = self.service.clock.now
        if self.channel is None:
            self.service.post(message)
            return self.service.clock.now
        result = self.channel.transmit(
            self.service.clock.now,
            size_bytes if size_bytes is not None else self.MESSAGE_BYTES,
        )
        self.service.post(message, arrival_time=result.arrival_time)
        return result.arrival_time

    def receive(self) -> List[SteeringMessage]:
        """Drain arrived messages addressed to this component."""
        return self.service.collect(self.component)
