"""Per-queue circuit breakers for the federated campaign.

A queue that keeps killing jobs (outage churn, security breach) should
stop receiving placements *before* the scheduler wastes more work on it:
the classic circuit-breaker state machine,

    CLOSED --(FAILURE_THRESHOLD consecutive failures)--> OPEN
    OPEN --(RESET_TIMEOUT_HOURS elapsed)--> HALF_OPEN (probe traffic allowed)
    HALF_OPEN --success--> CLOSED,  --failure--> OPEN again

driven here by the deterministic simulation clock (a ``clock()`` callable,
normally ``lambda: loop.now``).  The campaign manager records a failure
per killed/migrated job, consults :meth:`BreakerBoard.allows` in
``eligible_queues``, and records a success when a half-open site is
observed healthy — so breaker behaviour needs no randomness and stays
bit-identical run to run.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import Obs, as_obs

__all__ = ["BreakerState", "CircuitBreaker", "BreakerBoard"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One breaker guarding one queue/site."""

    #: Trip after two consecutive failures: sized to the campaign's hourly
    #: requeue cadence, so a site killed twice visibly opens during a run.
    FAILURE_THRESHOLD = 2
    #: Hours an open breaker waits before admitting probe traffic.
    RESET_TIMEOUT_HOURS = 6.0

    def __init__(self, name: str, clock: Callable[[], float],
                 obs: Optional[Obs] = None) -> None:
        self.name = name
        self.clock = clock
        self._obs = as_obs(obs)
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0
        #: (time, old_state, new_state) history.
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []

    def allows(self) -> bool:
        """Whether placements may be routed here right now.

        An OPEN breaker whose reset timeout has elapsed transitions to
        HALF_OPEN as a side effect and admits probe traffic.
        """
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if self.clock() >= self.opened_at + self.RESET_TIMEOUT_HOURS:
                self._set_state(BreakerState.HALF_OPEN)
        return self.state is not BreakerState.OPEN

    def record_failure(self) -> None:
        """One observed failure (killed job, rejected submit)."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
                self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.FAILURE_THRESHOLD):
            self._trip()

    def record_success(self) -> None:
        """The guarded queue was observed healthy; close the circuit."""
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._set_state(BreakerState.CLOSED)

    def _trip(self) -> None:
        self.trips += 1
        self.opened_at = self.clock()
        self.consecutive_failures = 0
        self._set_state(BreakerState.OPEN)
        if self._obs.enabled:
            self._obs.metrics.inc(f"resil.breaker.trips.{self.name}")

    def _set_state(self, new: BreakerState) -> None:
        old = self.state
        if new is old:
            return
        self.state = new
        self.transitions.append((self.clock(), old, new))
        if self._obs.enabled:
            self._obs.tracer.event(
                f"resil.breaker.{self.name}",
                from_state=old.value, to_state=new.value,
            )


class BreakerBoard:
    """Lazy per-site breaker collection."""

    def __init__(self, clock: Callable[[], float],
                 obs: Optional[Obs] = None) -> None:
        self.clock = clock
        self._obs = as_obs(obs)
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, site: str) -> CircuitBreaker:
        """Get or create the :class:`CircuitBreaker` guarding ``site``."""
        b = self._breakers.get(site)
        if b is None:
            b = CircuitBreaker(site, self.clock, obs=self._obs)
            self._breakers[site] = b
        return b

    def allows(self, site: str) -> bool:
        """Whether placements may be routed to ``site`` right now (see
        :meth:`CircuitBreaker.allows`)."""
        return self.breaker(site).allows()

    def record_failure(self, site: str) -> None:
        """Record one observed failure against ``site``'s breaker."""
        self.breaker(site).record_failure()

    def record_success(self, site: str) -> None:
        """Record a healthy observation; closes ``site``'s circuit."""
        self.breaker(site).record_success()

    def state(self, site: str) -> BreakerState:
        """Current :class:`BreakerState` of ``site``'s breaker."""
        return self.breaker(site).state

    def half_open(self, site: str) -> bool:
        """Whether ``site``'s breaker is admitting probe traffic only."""
        return self.breaker(site).state is BreakerState.HALF_OPEN

    @property
    def total_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())

    def trip_counts(self) -> Dict[str, int]:
        """Trip totals per site, sorted by name, sites with zero omitted."""
        return {s: b.trips for s, b in sorted(self._breakers.items())
                if b.trips}
