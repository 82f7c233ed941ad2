"""Failure injection: the Section V-C4 reliability lessons.

"Hardware failure and security issues cause serious disruption, especially
if there are single points of failure.  For example, for a duration close to
SC05, the number of UK resources whose utilization could be coordinated with
the US TeraGrid nodes was reduced to one.  As luck would have it there was
then a security breach on that one UK node.  It took several weeks to
sanitize that node..."

:class:`FailureInjector` schedules that scenario (and generic random
hardware failures) against batch queues; the redundancy benchmark compares
campaign time-to-solution with and without redundant UK capacity.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..rng import SeedLike, as_generator
from .scheduler import BatchQueue

__all__ = ["FailureInjector", "SECURITY_BREACH_WEEKS"]

#: "It took several weeks to sanitize that node" — we use three.
SECURITY_BREACH_WEEKS: float = 3.0


class FailureInjector:
    """Schedules outages against batch queues on their shared loop."""

    #: Mean time between random hardware failures of one queue, and the
    #: repair time of each (hours).
    MTBF_HOURS = 200.0
    REPAIR_HOURS = 12.0

    def __init__(self, seed: SeedLike = None) -> None:
        self.rng = as_generator(seed)
        self.injected: List[Tuple[str, float, float, str]] = []

    def security_breach(
        self,
        queue: BatchQueue,
        at_hours: float,
        weeks: float = SECURITY_BREACH_WEEKS,
    ) -> None:
        """The SC05 scenario: a node is compromised and sanitized for weeks."""
        if weeks <= 0:
            raise ConfigurationError("breach duration must be positive")
        duration = weeks * 7.0 * 24.0
        queue.schedule_outage(at_hours, duration, reason="security breach")
        self.injected.append((queue.resource.name, at_hours, duration, "security breach"))

    def hardware_failure(
        self,
        queue: BatchQueue,
        at_hours: float,
        repair_hours: float = 12.0,
    ) -> None:
        """A shorter, repairable outage."""
        queue.schedule_outage(at_hours, repair_hours, reason="hardware failure")
        self.injected.append((queue.resource.name, at_hours, repair_hours, "hardware failure"))

    def random_failures(
        self,
        queues: Sequence[BatchQueue],
        horizon_hours: float,
    ) -> int:
        """Poisson hardware failures over a horizon; returns count injected."""
        if horizon_hours <= 0:
            raise ConfigurationError("horizon must be positive")
        n_injected = 0
        for q in queues:
            t = float(self.rng.exponential(self.MTBF_HOURS))
            while t < horizon_hours:
                self.hardware_failure(q, at_hours=t,
                                      repair_hours=self.REPAIR_HOURS)
                t += self.REPAIR_HOURS + float(self.rng.exponential(self.MTBF_HOURS))
                n_injected += 1
        return n_injected

    # -- network faults (chaos harness) ---------------------------------------

    def network_partition(self, resil, grid_name: str, at_hours: float,
                          duration_hours: float) -> None:
        """Cut one grid off from the campaign broker for a window.

        Registers a :class:`~repro.resil.GridPartition` on the resilience
        bundle: while active the broker neither places to nor requeues
        from the grid's queues.
        """
        if duration_hours <= 0:
            raise ConfigurationError("partition duration must be positive")
        # Imported here: repro.resil.core is a leaf, but keep the injector
        # usable without the resil package loaded up front.
        from ..resil.core import GridPartition

        resil.partitions.append(
            GridPartition(grid_name, at_hours, at_hours + duration_hours)
        )
        self.injected.append(
            (grid_name, at_hours, duration_hours, "network partition")
        )

    def link_flap(self, channel, at_s: float, duration_s: float,
                  n_flaps: int = 3, loss_rate: float = 1.0) -> None:
        """A flapping link: ``n_flaps`` evenly spaced hard-loss windows.

        Each flap covers half its slot (down, up, down, up...), so a
        3-flap fault over 60 s yields 10 s cuts at 0, 20 and 40 s in.
        Deterministic — no RNG draws.
        """
        if n_flaps < 1:
            raise ConfigurationError("need at least one flap")
        if duration_s <= 0:
            raise ConfigurationError("flap duration must be positive")
        slot = duration_s / n_flaps
        for i in range(n_flaps):
            channel.inject_fault(at_s + i * slot, slot / 2.0,
                                 loss_rate=loss_rate)
        self.injected.append(
            (channel.name, at_s, duration_s, f"link flap x{n_flaps}")
        )

    def loss_burst(self, channel, at_s: float, duration_s: float,
                   loss_rate: float = 0.5,
                   extra_latency_ms: float = 0.0) -> None:
        """A single degraded-link window (partial loss, optional rerouting
        latency) — congestion rather than a hard cut."""
        channel.inject_fault(at_s, duration_s, loss_rate=loss_rate,
                             extra_latency_ms=extra_latency_ms)
        self.injected.append(
            (channel.name, at_s, duration_s,
             f"loss burst p={loss_rate:g}")
        )
