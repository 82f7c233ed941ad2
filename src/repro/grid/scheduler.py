"""Per-resource batch queue with EASY backfill, reservations and outages.

Models a 2005-era HPC batch system well enough for the paper's campaign
experiments: FCFS with EASY (aggressive) backfill, exclusive processor
allocation, advance reservations that block capacity windows, and outages
(hardware failure, the Section V-C4 security breach) that kill running jobs
and close the queue.

Background load is modelled as a deterministic reduction of the capacity
available to the campaign: a machine at 0.55 background load exposes 45 % of
its processors — the realistic "you are not the only user" regime that makes
single-site campaigns slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..obs import Obs, as_obs
from .des import EventLoop
from .jobs import Job, JobState
from .resources import ComputeResource

__all__ = ["Reservation", "BatchQueue"]


@dataclass(frozen=True)
class Reservation:
    """An advance reservation of ``procs`` processors over a time window."""

    res_id: int
    start: float
    end: float
    procs: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError("reservation must have positive duration")
        if self.procs <= 0:
            raise ConfigurationError("reservation needs positive procs")

    def overlaps(self, t0: float, t1: float) -> bool:
        return self.start < t1 and t0 < self.end


class BatchQueue:
    """Batch scheduler for one :class:`ComputeResource` on an event loop."""

    def __init__(self, resource: ComputeResource, loop: EventLoop,
                 obs: Optional[Obs] = None) -> None:
        self.resource = resource
        self.loop = loop
        self._obs = as_obs(obs)
        self.capacity = max(
            int(resource.total_procs * (1.0 - resource.background_load)), 1
        )
        self.procs_in_use = 0
        self.waiting: List[Job] = []
        self.running: Dict[int, Tuple[Job, float]] = {}
        self.reservations: List[Reservation] = []
        self._res_ids = 0
        self.down = False
        self._outage_until = 0.0
        self.completed: List[Job] = []
        self.killed: List[Job] = []
        self.utilization_trace: List[Tuple[float, int]] = [(0.0, 0)]

    # -- capacity accounting ---------------------------------------------------

    def free_procs(self) -> int:
        return self.capacity - self.procs_in_use

    def _reserved_procs(self, t0: float, t1: float) -> int:
        """Max processors reserved at any instant in [t0, t1)."""
        return sum(
            r.procs
            for r in self.reservations
            if r.overlaps(t0, t1)
        )

    def _can_start(self, job: Job) -> bool:
        now = self.loop.now
        wall = self.resource.wall_hours(job.remaining_duration_hours)
        if job.procs > self.capacity:
            return False
        reserved = self._reserved_procs(now, now + wall)
        return job.procs <= self.capacity - self.procs_in_use - reserved

    # -- reservations --------------------------------------------------------------

    def reserve(self, start: float, duration: float, procs: int) -> Reservation:
        """Place an advance reservation; checks capacity against existing
        reservations (but, realistically, not against the waiting queue —
        reservations preempt queue priority)."""
        if start < self.loop.now:
            raise SchedulingError("reservation window is in the past")
        if procs > self.capacity:
            raise SchedulingError(
                f"{self.resource.name}: reservation for {procs} procs exceeds "
                f"available capacity {self.capacity}"
            )
        end = start + duration
        if self._reserved_procs(start, end) + procs > self.capacity:
            raise SchedulingError(
                f"{self.resource.name}: reservation window over-committed"
            )
        self._res_ids += 1
        res = Reservation(self._res_ids, start, end, procs)
        self.reservations.append(res)
        # Queue state changes at the window edges: jobs blocked purely by
        # the reservation must be re-dispatched when it opens and closes.
        self.loop.schedule_at(start, self._dispatch)
        self.loop.schedule_at(end, self._dispatch)
        return res

    def cancel_reservation(self, res_id: int) -> None:
        before = len(self.reservations)
        self.reservations = [r for r in self.reservations if r.res_id != res_id]
        if len(self.reservations) == before:
            raise SchedulingError(f"no reservation #{res_id}")

    # -- job lifecycle ----------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue a job and trigger a dispatch cycle."""
        if job.procs > self.capacity:
            raise SchedulingError(
                f"job {job.name!r} needs {job.procs} procs; "
                f"{self.resource.name} exposes {self.capacity}"
            )
        job.state = JobState.QUEUED
        job.resource = self.resource.name
        job.submit_time = self.loop.now
        job.site_history.append(self.resource.name)
        self.waiting.append(job)
        if self._obs.enabled:
            self._obs.metrics.inc(f"grid.submitted.{self.resource.name}")
        self._dispatch()

    def _start(self, job: Job) -> None:
        wall = self.resource.wall_hours(job.remaining_duration_hours)
        if not self._can_start(job):
            raise SchedulingError(f"internal: started unstartable job {job.name!r}")
        job.state = JobState.RUNNING
        job.start_time = self.loop.now
        end = self.loop.now + wall
        self.procs_in_use += job.procs
        self._trace()
        self.running[job.job_id] = (job, end)
        if self._obs.enabled and job.submit_time is not None:
            self._obs.metrics.observe(
                f"grid.queue_wait_hours.{self.resource.name}",
                self.loop.now - job.submit_time,
            )

        def complete() -> None:
            if job.job_id not in self.running:
                return  # killed meanwhile
            del self.running[job.job_id]
            job.state = JobState.COMPLETED
            job.end_time = self.loop.now
            self.procs_in_use -= job.procs
            self._trace()
            self.completed.append(job)
            if self._obs.enabled:
                self._obs.metrics.inc(f"grid.completed.{self.resource.name}")
                self._obs.metrics.inc("grid.cpu_hours", job.cpu_hours)
            self._dispatch()

        self.loop.schedule_at(end, complete)

    def _dispatch(self) -> None:
        """FCFS + EASY backfill dispatch cycle."""
        if self.down:
            return
        # Start jobs from the head while they fit.
        while self.waiting and self._can_start(self.waiting[0]):
            self._start(self.waiting.pop(0))
        if not self.waiting:
            return
        # EASY backfill: compute the head job's shadow start and spare procs,
        # then start any later job that fits now without delaying the head.
        head = self.waiting[0]
        shadow, spare = self._shadow_time(head)
        i = 1
        while i < len(self.waiting):
            cand = self.waiting[i]
            if self._can_start(cand):
                wall = self.resource.wall_hours(cand.remaining_duration_hours)
                ends_before_shadow = self.loop.now + wall <= shadow + 1e-9
                if ends_before_shadow or cand.procs <= spare:
                    if cand.procs <= spare and not ends_before_shadow:
                        spare -= cand.procs
                    self._start(self.waiting.pop(i))
                    continue
            i += 1

    def _shadow_time(self, head: Job) -> Tuple[float, int]:
        """Earliest time the head job could start, and the processors left
        over at that time (the EASY 'extra' procs)."""
        free = self.free_procs()
        if head.procs <= free:
            return self.loop.now, free - head.procs
        ends = sorted((end, job.procs) for job, end in self.running.values())
        for end, procs in ends:
            free += procs
            if head.procs <= free:
                return end, free - head.procs
        # Unreachable if capacity checks hold: queue admits only fitting jobs.
        raise SchedulingError(f"head job {head.name!r} can never start")

    # -- outages -----------------------------------------------------------------------

    def schedule_outage(self, start: float, duration: float,
                        reason: str = "hardware failure") -> None:
        """Take the machine down for ``duration`` hours from ``start``.

        Running jobs are killed (and must be requeued by the owner — the
        paper's campaign logic resubmits elsewhere); queued jobs stay queued.
        """
        if start < self.loop.now:
            raise SchedulingError("outage starts in the past")
        if duration <= 0:
            raise SchedulingError("outage needs positive duration")

        outage_end = start + duration

        def go_down() -> None:
            # Overlapping outages: remember the furthest end so an earlier
            # outage's come_up cannot resurrect a queue still inside a later
            # window, and never re-kill on a queue that is already down.
            self._outage_until = max(self._outage_until, outage_end)
            if self.down:
                return
            self.down = True
            if self._obs.enabled:
                self._obs.tracer.event(
                    f"grid.outage.{self.resource.name}",
                    clock=self.loop.clock, reason=reason,
                    duration_hours=duration,
                )
            for job, end in list(self.running.values()):
                job.state = JobState.KILLED
                if job.checkpointable and job.start_time is not None:
                    # Record progress up to the last checkpoint (we model
                    # continuous checkpointing: progress == elapsed).
                    wall = self.resource.wall_hours(job.remaining_duration_hours)
                    elapsed = self.loop.now - job.start_time
                    run_fraction = min(max(elapsed / wall, 0.0), 1.0) if wall > 0 else 1.0
                    job.completed_fraction += (
                        (1.0 - job.completed_fraction) * run_fraction
                    )
                job.end_time = self.loop.now
                self.procs_in_use -= job.procs
                self.killed.append(job)
                if self._obs.enabled:
                    self._obs.metrics.inc(f"grid.killed.{self.resource.name}")
            self.running.clear()
            self._trace()

        def come_up() -> None:
            if self.loop.now < self._outage_until - 1e-12:
                return  # stale: a later overlapping outage still holds us down
            self.down = False
            self._dispatch()

        self.loop.schedule_at(start, go_down)
        self.loop.schedule_at(outage_end, come_up)

    # -- reporting ---------------------------------------------------------------------

    def _trace(self) -> None:
        self.utilization_trace.append((self.loop.now, self.procs_in_use))

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Time-averaged fraction of exposed capacity in use."""
        trace = self.utilization_trace
        end = horizon if horizon is not None else self.loop.now
        # Guard the degenerate cases up front: no horizon, or no samples at
        # all (the old `a or b and c` guard indexed trace[-1] on an empty
        # trace).  A single sample at/after the horizon falls through and
        # integrates to zero naturally.
        if end <= 0 or not trace:
            return 0.0
        area = 0.0
        for (t0, used), (t1, _next_used) in zip(trace, trace[1:]):
            if t0 >= end:
                break
            area += used * (min(t1, end) - t0)
        last_t, last_used = trace[-1]
        if last_t < end:
            area += last_used * (end - last_t)
        return area / (self.capacity * end)
