"""The resilience bundle threaded through the campaign layer.

:class:`Resilience` groups the three fault-tolerance mechanisms —
heartbeat failure detector, per-site circuit breakers, placement retry
policy — plus any scheduled :class:`GridPartition` windows, behind
the single ``resil=`` handle :class:`~repro.grid.CampaignManager` accepts.
With no handle the manager keeps its historical oracle behaviour
(reading ``queue.down`` directly); with a bundle and no injected faults
the campaign is bit-identical to the oracle run, because every mechanism
is event-loop-deterministic and the placement retry policy draws no
random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError
from ..obs import Obs
from .breaker import BreakerBoard
from .detector import HeartbeatFailureDetector
from .policy import DEFAULT_PLACEMENT_RETRY

__all__ = ["GridPartition", "Resilience"]


@dataclass(frozen=True)
class GridPartition:
    """A network partition cutting one grid off from the campaign broker.

    While active, the broker can neither submit to nor requeue from any
    queue of the named grid; jobs already running there keep running
    (site-local schedulers are unaffected — paper Section V-C1's hidden
    sites behave the same way).
    """

    grid: str
    start_hours: float
    end_hours: float

    def __post_init__(self) -> None:
        if self.end_hours <= self.start_hours:
            raise ConfigurationError("partition must have positive duration")

    def active(self, now: float) -> bool:
        """Whether the partition window covers simulated hour ``now``."""
        return self.start_hours <= now < self.end_hours


class Resilience:
    """Detector + breakers + retry policy, bundled for the campaign manager.

    Parameters
    ----------
    detector / breakers:
        The :class:`~repro.resil.HeartbeatFailureDetector` and
        :class:`~repro.resil.BreakerBoard` (build both with
        :meth:`for_federation`).

    Job placement retries under :data:`~repro.resil.DEFAULT_PLACEMENT_RETRY`
    (hours); exhaustion turns a job into a typed unplaced outcome instead
    of retrying forever.  :attr:`partitions` holds the scheduled
    :class:`GridPartition` windows the chaos harness injects.
    """

    def __init__(self, detector: HeartbeatFailureDetector,
                 breakers: BreakerBoard) -> None:
        self.detector = detector
        self.breakers = breakers
        self.placement_retry = DEFAULT_PLACEMENT_RETRY
        self.partitions: List[GridPartition] = []

    @classmethod
    def for_federation(cls, federation, *, obs: Optional[Obs] = None,
                       failure_threshold: int = 3,
                       reset_timeout_hours: float = 6.0,
                       ) -> "Resilience":
        """Default bundle wired to a federation: detector watching every
        queue, a breaker board on the shared loop clock."""
        loop = federation.loop
        detector = HeartbeatFailureDetector(loop, obs=obs)
        breakers = BreakerBoard(
            clock=lambda: loop.now,
            failure_threshold=failure_threshold,
            reset_timeout_hours=reset_timeout_hours,
            obs=obs,
        )
        resil = cls(detector, breakers)
        resil.bind(federation)
        return resil

    # -- wiring ---------------------------------------------------------------

    def bind(self, federation) -> None:
        """Ensure the detector watches every federation queue (idempotent)."""
        for queue in federation.all_queues().values():
            self.detector.watch(queue)

    # -- queries the campaign manager makes -----------------------------------

    def reachable(self, grid_name: str, now: float) -> bool:
        """Whether the broker can talk to a grid's queues right now."""
        return not any(p.grid == grid_name and p.active(now)
                       for p in self.partitions)

    def queue_down(self, queue) -> bool:
        """Observed (not oracle) view of a queue's liveness: the detector's
        confirmed-dead verdict when it watches the site, else the raw flag."""
        if self.detector.watching(queue.resource.name):
            return not self.detector.is_alive(queue.resource.name)
        return queue.down

    def suspected(self, queue) -> bool:
        """Whether the detector marks the queue's site SUSPECT (``False``
        when the site is unwatched)."""
        return (self.detector.watching(queue.resource.name)
                and self.detector.suspected(queue.resource.name))

    def breaker_allows(self, site: str) -> bool:
        """Whether the breaker board admits placements to ``site``."""
        return self.breakers.allows(site)
