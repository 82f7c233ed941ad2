"""Heartbeat failure detection over the grid event loop.

The paper's Section V-C catalogue (QoS loss, hidden sites, the security
breach that silently removed the only coordinated UK node) all share one
shape: the broker learns about failure *late*, from missing signals — not
from an oracle.  :class:`HeartbeatFailureDetector` models exactly that:
every watched batch queue emits a heartbeat each interval while its site
is up (the site knows its own state; the *detector* only ever sees beat
timestamps), and the detector classifies each site from missed beats:

    ALIVE --(SUSPECT_AFTER missed)--> SUSPECT --(CONFIRM_AFTER)--> DEAD

Recovery is symmetric — the first beat after an outage flips the site
back to ALIVE and records the time-to-recovery.  Everything runs as
ordinary deterministic events on the shared :class:`~repro.grid.EventLoop`;
no wall clock, no randomness, so an instrumented run with a detector and
no faults is bit-identical to one without.

The campaign manager consults :meth:`is_alive` / :meth:`suspected`
instead of reading ``queue.down`` directly — replacing oracle knowledge
with observed failure, at the cost of honest detection lag.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..obs import Obs, as_obs

__all__ = ["SiteHealth", "HeartbeatFailureDetector"]


class SiteHealth(Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


class HeartbeatFailureDetector:
    """Per-site suspect/confirm failure detector driven by heartbeats.

    Parameters
    ----------
    loop:
        The shared grid event loop (time unit: hours).
    obs:
        Optional instrumentation: every transition bumps
        ``resil.detector.transitions.<site>``, emits a
        ``resil.detector.<site>`` trace event, and a recovery observes
        ``resil.detector.recovery_hours.<site>`` (time from confirmed
        dead back to alive).
    """

    #: Heartbeat period (hours); also the detector's check cadence.
    INTERVAL_HOURS = 0.5
    #: Consecutive missed beats before a site is suspected / confirmed dead.
    SUSPECT_AFTER = 2
    CONFIRM_AFTER = 4

    def __init__(self, loop, obs: Optional[Obs] = None) -> None:
        self.loop = loop
        self._obs = as_obs(obs)
        self._queues: Dict[str, object] = {}
        self._health: Dict[str, SiteHealth] = {}
        self._last_beat: Dict[str, float] = {}
        self._dead_since: Dict[str, float] = {}
        self._pending_ticks = 0
        #: Every (time, site, old, new) transition, in event order.
        self.transitions: List[Tuple[float, str, SiteHealth, SiteHealth]] = []

    # -- registration --------------------------------------------------------

    def watch(self, queue) -> None:
        """Start monitoring a batch queue (idempotent per site)."""
        site = queue.resource.name
        if site in self._queues:
            return
        self._queues[site] = queue
        self._health[site] = SiteHealth.ALIVE
        self._last_beat[site] = self.loop.now
        self._schedule_tick(site)

    def _schedule_tick(self, site: str) -> None:
        self._pending_ticks += 1
        self.loop.schedule(self.INTERVAL_HOURS, lambda: self._tick(site))

    def watching(self, site: str) -> bool:
        """Whether ``site`` has been registered via :meth:`watch`."""
        return site in self._queues

    @property
    def sites(self) -> List[str]:
        return sorted(self._queues)

    # -- state ---------------------------------------------------------------

    def health(self, site: str) -> SiteHealth:
        """Current :class:`SiteHealth` verdict for a watched site; raises
        :class:`~repro.errors.ConfigurationError` for unwatched sites."""
        try:
            return self._health[site]
        except KeyError:
            raise ConfigurationError(
                f"detector is not watching site {site!r}") from None

    def is_alive(self, site: str) -> bool:
        """Schedulable: not *confirmed* dead (suspects get benefit of doubt)."""
        return self.health(site) is not SiteHealth.DEAD

    def suspected(self, site: str) -> bool:
        """Missed heartbeats but not yet confirmed dead (SUSPECT state)."""
        return self.health(site) is SiteHealth.SUSPECT

    # -- the heartbeat/check cycle -------------------------------------------

    def _tick(self, site: str) -> None:
        self._pending_ticks -= 1
        queue = self._queues[site]
        now = self.loop.now
        # Heartbeat emission is site-local: a live site beats, a downed one
        # cannot.  The detector only ever reads the beat timestamp below.
        if not queue.down:
            self._last_beat[site] = now
        missed = int((now - self._last_beat[site]) / self.INTERVAL_HOURS
                     + 1e-9)
        if missed >= self.CONFIRM_AFTER:
            new = SiteHealth.DEAD
        elif missed >= self.SUSPECT_AFTER:
            new = SiteHealth.SUSPECT
        else:
            new = SiteHealth.ALIVE
        self._transition(site, new)
        # Keep ticking while there is anything left to observe: this site
        # down/unhealthy, pending work anywhere, or *any other event still
        # scheduled on the loop* (a future outage, a requeue check, a
        # running job's completion).  When only the detector's own ticks
        # remain, everything is idle — go quiet so the loop can drain.
        if (queue.down
                or self._health[site] is not SiteHealth.ALIVE
                or any(q.waiting or q.running or q.killed
                       for q in self._queues.values())
                or self.loop.pending > self._pending_ticks):
            self._schedule_tick(site)

    def _transition(self, site: str, new: SiteHealth) -> None:
        old = self._health[site]
        if new is old:
            return
        now = self.loop.now
        self._health[site] = new
        self.transitions.append((now, site, old, new))
        if new is SiteHealth.DEAD:
            self._dead_since[site] = now
        if self._obs.enabled:
            self._obs.metrics.inc(f"resil.detector.transitions.{site}")
            self._obs.tracer.event(
                f"resil.detector.{site}",
                clock=getattr(self.loop, "clock", None),
                from_state=old.value, to_state=new.value,
            )
        if new is SiteHealth.ALIVE and site in self._dead_since:
            recovery = now - self._dead_since.pop(site)
            if self._obs.enabled:
                self._obs.metrics.observe(
                    f"resil.detector.recovery_hours.{site}", recovery)
