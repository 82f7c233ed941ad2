"""Grids, the federation, and campaign execution.

A :class:`Grid` is a named collection of resources with their batch queues
(TeraGrid, NGS); a :class:`FederatedGrid` is the grid-of-grids of paper
Fig. 5.  :class:`CampaignManager` runs a job campaign over the federation:
jobs are placed greedily on the eligible queue with the earliest estimated
start, killed jobs (outages) are automatically resubmitted elsewhere — the
"as luck would have it" security-breach scenario — and the final report
carries makespan, waits and utilization for the batch-phase benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from .des import EventLoop
from .jobs import Job, JobState
from .resources import ComputeResource
from .scheduler import BatchQueue

__all__ = ["Grid", "FederatedGrid", "CampaignReport", "CampaignManager"]


class Grid:
    """One administrative grid: named resources sharing an event loop."""

    def __init__(self, name: str, resources: Sequence[ComputeResource],
                 loop: EventLoop, obs: Optional[Obs] = None) -> None:
        if not resources:
            raise ConfigurationError(f"grid {name!r} needs at least one resource")
        self.name = name
        self.loop = loop
        self.queues: Dict[str, BatchQueue] = {
            r.name: BatchQueue(r, loop, obs=obs) for r in resources
        }

    @property
    def resources(self) -> List[ComputeResource]:
        return [q.resource for q in self.queues.values()]

    def queue(self, resource_name: str) -> BatchQueue:
        try:
            return self.queues[resource_name]
        except KeyError:
            raise ConfigurationError(
                f"grid {self.name!r} has no resource {resource_name!r}"
            ) from None


class FederatedGrid:
    """The grid-of-grids: several :class:`Grid` instances on one loop."""

    def __init__(self, grids: Sequence[Grid]) -> None:
        if not grids:
            raise ConfigurationError("federation needs at least one grid")
        loops = {id(g.loop) for g in grids}
        if len(loops) != 1:
            raise ConfigurationError("all grids must share one event loop")
        self.grids = list(grids)
        self.loop = grids[0].loop

    def all_queues(self) -> Dict[str, BatchQueue]:
        out: Dict[str, BatchQueue] = {}
        for g in self.grids:
            for name, q in g.queues.items():
                if name in out:
                    raise ConfigurationError(f"duplicate resource name {name!r}")
                out[name] = q
        return out


@dataclass
class CampaignReport:
    """Results of a completed campaign."""

    makespan_hours: float
    completed: List[Job]
    unplaced: List[Job]
    total_cpu_hours: float
    per_resource_jobs: Dict[str, int]
    per_resource_utilization: Dict[str, float]
    requeues: int
    #: Jobs moved to the dead-letter queue (terminal, campaign degraded).
    dead_lettered: List[Job] = field(default_factory=list)

    @property
    def all_completed(self) -> bool:
        return not self.unplaced and bool(self.completed)

    @property
    def degraded(self) -> bool:
        """Completed, but with dead-lettered jobs left behind."""
        return bool(self.dead_lettered) and not self.unplaced

    @property
    def mean_wait_hours(self) -> float:
        waits = [j.wait_hours for j in self.completed if j.wait_hours is not None]
        return sum(waits) / len(waits) if waits else 0.0


class CampaignManager:
    """Runs a set of jobs to completion over a federation.

    Placement: for each job, among queues that (a) expose enough capacity
    and (b) satisfy connectivity constraints (steering-required jobs need an
    externally reachable, lightpath-equipped site), pick the queue with the
    earliest *estimated* start (backlog work / capacity) — the greedy
    least-loaded heuristic a human broker (or the paper's scientists,
    by hand) would use.

    Requeue: a monitor event every :attr:`REQUEUE_CHECK_HOURS` resubmits jobs
    killed by outages to the currently-best other queue, and moves jobs
    still waiting on a downed queue to a live one.

    With a :class:`~repro.resil.Resilience` bundle (``resil=``) the manager
    stops reading the oracle ``queue.down`` flag and instead trusts the
    bundle's heartbeat detector, consults its per-site circuit breakers
    during placement, respects grid partitions, and turns "no queue
    available right now" into a *deferred* placement retried with the
    bundle's backoff policy instead of an immediate terminal ``unplaced``.
    Without faults a resil-enabled campaign is bit-identical to the
    oracle-driven one.
    """

    #: Hours between requeue monitor events.
    REQUEUE_CHECK_HOURS = 1.0

    def __init__(self, federation: FederatedGrid,
                 obs: Optional[Obs] = None, resil=None, dlq=None) -> None:
        self.federation = federation
        self.loop = federation.loop
        self.unplaced: List[Job] = []
        self.dead_lettered: List[Job] = []
        self._jobs: List[Job] = []
        self._obs = as_obs(obs)
        self._resil = resil
        #: Optional :class:`repro.resil.DeadLetterQueue`: placement-retry
        #: exhaustion becomes a durable DLQ entry + degraded completion
        #: instead of a terminal ``unplaced``.
        self._dlq = dlq
        self._job_fingerprints: Dict[str, str] = {}
        #: With a DLQ: a job killed+requeued this many times is declared a
        #: poison pill and dead-lettered instead of requeued again.
        self.dead_letter_requeues = 8
        #: (retry_at_hours, job) — placements waiting on backoff.
        self._deferred: List[Tuple[float, Job]] = []
        self._place_attempts: Dict[int, int] = {}
        self._grid_of: Optional[Dict[str, str]] = None

    # -- placement ------------------------------------------------------------

    def _grid_name(self, queue: BatchQueue) -> str:
        if self._grid_of is None:
            self._grid_of = {
                name: g.name
                for g in self.federation.grids for name in g.queues
            }
        return self._grid_of[queue.resource.name]

    def _structural_candidates(self, job: Job) -> List[BatchQueue]:
        """Queues that could *ever* host the job (capacity, connectivity)."""
        out = []
        for q in self.federation.all_queues().values():
            if job.procs > q.capacity:
                continue
            if job.steering_required and not (
                q.resource.externally_reachable and q.resource.lightpath
            ):
                continue
            out.append(q)
        return out

    def eligible_queues(self, job: Job) -> List[BatchQueue]:
        out = self._structural_candidates(job)
        resil = self._resil
        if resil is None:
            return out
        now = self.loop.now
        return [
            q for q in out
            if resil.reachable(self._grid_name(q), now)
            and not resil.queue_down(q)
            and resil.breaker_allows(q.resource.name)
        ]

    def _queue_down(self, queue: BatchQueue) -> bool:
        """Observed liveness: detector verdict with resil, oracle without."""
        if self._resil is not None:
            return self._resil.queue_down(queue)
        return queue.down

    def _start_estimate(self, queue: BatchQueue) -> float:
        """Crude backlog estimate: pending + running work plus a liveness
        penalty, over capacity.  The down-penalty follows the observed
        liveness (:meth:`_queue_down`); with a resil bundle, suspected but
        unconfirmed sites get a milder one.  A healthy site adds ``0.0``,
        which is exact, so a fault-free resil run ranks queues
        bit-identically to the oracle-driven one."""
        if self._queue_down(queue):
            penalty = queue.capacity * 1000.0  # effectively never
        elif self._resil is not None and self._resil.suspected(queue):
            penalty = queue.capacity * 100.0  # deprioritize, don't exclude
        else:
            penalty = 0.0
        backlog = sum(
            j.procs * queue.resource.wall_hours(j.remaining_duration_hours)
            for j in queue.waiting
        )
        running = sum(
            (end - queue.loop.now) * j.procs for j, end in queue.running.values()
        )
        return (backlog + penalty + running) / queue.capacity

    def place(self, job: Job) -> Optional[BatchQueue]:
        """Submit one job to the best eligible queue.

        Returns ``None`` when no queue took the job.  Without a resilience
        bundle that is terminal (``unplaced``); with one, a job whose
        structural candidates exist but are currently dead / tripped /
        partitioned is *deferred* and retried under the bundle's backoff
        policy — only structurally impossible jobs or retry exhaustion
        land in ``unplaced``.
        """
        candidates = self.eligible_queues(job)
        if not candidates:
            if self._resil is not None and self._structural_candidates(job):
                self._defer(job)
            else:
                self._mark_unplaced(job)
            return None
        best = min(candidates,
                   key=lambda q: (self._start_estimate(q), q.resource.name))
        best.submit(job)
        if self._obs.enabled:
            self._obs.metrics.inc("grid.placements")
            if self._resil is not None:
                attempts = self._place_attempts.pop(job.job_id, 0) + 1
                self._obs.metrics.observe(
                    "resil.retry.attempts.grid.placement", attempts)
        elif self._resil is not None:
            self._place_attempts.pop(job.job_id, None)
        return best

    def _mark_unplaced(self, job: Job) -> None:
        if self._dlq is not None:
            self._dead_letter(job)
            return
        self.unplaced.append(job)
        if self._obs.enabled:
            self._obs.metrics.inc("grid.unplaced")

    def _dead_letter(self, job: Job, reason: Optional[str] = None,
                     last_error: Optional[str] = None) -> None:
        """Terminal, durable: record the job in the DLQ; campaign degrades
        instead of blocking or silently dropping it."""
        attempts = self._place_attempts.pop(job.job_id, 0)
        if reason is None:
            structural = bool(self._structural_candidates(job))
            reason = "unplaceable" if not structural or self._resil is None \
                else "retry-exhausted"
            last_error = (
                "no structural candidate in federation" if not structural
                else "placement retries exhausted: every eligible queue "
                     "dead, tripped or partitioned")
        self._dlq.record(
            task_key=(job.name,),
            fingerprint=self._job_fingerprints.get(job.name),
            reason=reason,
            attempts=max(attempts, job.requeues),
            last_error=last_error or reason,
            site_history=job.site_history,
        )
        self.dead_lettered.append(job)
        if self._obs.enabled:
            self._obs.metrics.inc("grid.dead_lettered")

    def _defer(self, job: Job) -> None:
        resil = self._resil
        policy = resil.placement_retry
        attempts = self._place_attempts.get(job.job_id, 0) + 1
        self._place_attempts[job.job_id] = attempts
        if policy.exhausted(attempts):
            self._mark_unplaced(job)
            self._place_attempts.pop(job.job_id, None)
            if self._obs.enabled:
                self._obs.metrics.inc("resil.retry.exhausted.grid.placement")
                self._obs.metrics.observe(
                    "resil.retry.attempts.grid.placement", attempts)
            return
        delay = policy.backoff(attempts)
        self._deferred.append((self.loop.now + delay, job))
        if self._obs.enabled:
            self._obs.metrics.inc("grid.placements_deferred")

    # -- execution --------------------------------------------------------------

    def run(self, jobs: Sequence[Job], until: Optional[float] = None,
            job_fingerprints: Optional[Dict[str, str]] = None) -> CampaignReport:
        """Place all jobs, run the loop to completion, return the report.

        ``job_fingerprints`` (job name → store fingerprint) lets
        dead-letter entries carry the task's store identity.
        """
        self._job_fingerprints = dict(job_fingerprints or {})
        self._jobs = list(jobs)
        if self._resil is not None:
            self._resil.bind(self.federation)
        with self._obs.span("grid.campaign", clock=getattr(self.loop, "clock", None),
                            jobs=len(self._jobs)):
            for job in self._jobs:
                self.place(job)
            self._schedule_requeue_check()
            self.loop.run(until=until)
        return self._report()

    def _schedule_requeue_check(self) -> None:
        def check() -> None:
            requeued_any = False
            now = self.loop.now
            resil = self._resil
            # Deferred placements whose backoff expired get another attempt
            # (may defer again; exhaustion lands them in ``unplaced``).
            if self._deferred:
                ready = [(t, j) for t, j in self._deferred if t <= now + 1e-9]
                if ready:
                    self._deferred = [
                        (t, j) for t, j in self._deferred if t > now + 1e-9
                    ]
                    for _t, job in ready:
                        if self.place(job) is not None:
                            requeued_any = True
            for q in self.federation.all_queues().values():
                if resil is not None and not resil.reachable(
                        self._grid_name(q), now):
                    # Partitioned: the broker cannot see this queue at all —
                    # killed jobs there wait for the partition to heal.
                    continue
                while q.killed:
                    job = q.killed.pop()
                    job.reset_for_requeue()
                    if resil is not None:
                        resil.breakers.record_failure(q.resource.name)
                    # A job the grid keeps killing (every site it lands on
                    # trips) is a poison pill: with a DLQ attached it gets
                    # a terminal entry instead of cycling forever.
                    if (self._dlq is not None
                            and job.requeues >= self.dead_letter_requeues):
                        self._dead_letter(
                            job, reason="breaker-rejected",
                            last_error=f"killed and requeued "
                                       f"{job.requeues} times; giving up")
                    else:
                        self.place(job)
                    requeued_any = True
                    if self._obs.enabled:
                        self._obs.metrics.inc("grid.requeues")
                # Jobs still waiting on a downed machine are migrated too —
                # if a live alternative exists.  With no alternative they
                # stay queued for weeks: the single-point-of-failure
                # pathology the paper complains about.
                if self._queue_down(q) and q.waiting:
                    for job in list(q.waiting):
                        alternatives = [
                            c for c in self.eligible_queues(job)
                            if c is not q and not self._queue_down(c)
                        ]
                        if not alternatives:
                            continue
                        q.waiting.remove(job)
                        job.reset_for_requeue()
                        if resil is not None:
                            resil.breakers.record_failure(q.resource.name)
                        best = min(
                            alternatives,
                            key=lambda c: (self._start_estimate(c),
                                           c.resource.name),
                        )
                        best.submit(job)
                        requeued_any = True
                        if self._obs.enabled:
                            self._obs.metrics.inc("grid.requeues")
                # A half-open breaker whose queue answers the probe healthy
                # closes again and the site rejoins the placement pool.
                if (resil is not None
                        and resil.breakers.half_open(q.resource.name)
                        and not q.down):
                    resil.breakers.record_success(q.resource.name)
            # Keep checking while work remains anywhere.  (``q.killed`` and
            # ``self._deferred`` are always empty without a resil bundle, so
            # the legacy keep-alive condition is unchanged in that mode.)
            if requeued_any or self._deferred or any(
                q.waiting or q.running or q.killed
                for q in self.federation.all_queues().values()
            ):
                self.loop.schedule(self.REQUEUE_CHECK_HOURS, check)

        self.loop.schedule(self.REQUEUE_CHECK_HOURS, check)

    def _report(self) -> CampaignReport:
        # Deferred placements that never found a home before the loop ended
        # (e.g. an ``until=`` cutoff) count as unplaced in the report.
        for _t, job in self._deferred:
            if job not in self.unplaced:
                self.unplaced.append(job)
        completed = [j for j in self._jobs if j.state is JobState.COMPLETED]
        makespan = max((j.end_time for j in completed if j.end_time is not None),
                       default=0.0)
        per_resource: Dict[str, int] = {}
        for j in completed:
            per_resource[j.resource or "?"] = per_resource.get(j.resource or "?", 0) + 1
        util = {
            name: q.utilization(horizon=makespan if makespan > 0 else None)
            for name, q in self.federation.all_queues().items()
        }
        if self._obs.enabled:
            for name, u in util.items():
                self._obs.metrics.set_gauge(f"grid.utilization.{name}", u)
            self._obs.metrics.set_gauge("grid.makespan_hours", makespan)
        return CampaignReport(
            makespan_hours=makespan,
            completed=completed,
            unplaced=list(self.unplaced),
            total_cpu_hours=sum(j.cpu_hours for j in completed),
            per_resource_jobs=per_resource,
            per_resource_utilization=util,
            requeues=sum(j.requeues for j in self._jobs),
            dead_lettered=list(self.dead_lettered),
        )
