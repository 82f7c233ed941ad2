"""Grid job descriptions and lifecycle.

A :class:`Job` is a parallel batch job: processor count, wall-time estimate
and actual duration, plus lifecycle timestamps filled in by the scheduler.
SPICE's production workload — "72 parallel MD simulations ... with each
individual simulation running on 128 or 256 processors" totalling ~75,000
CPU-hours — is generated by :func:`spice_batch_jobs` using the paper's cost
figures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..errors import ConfigurationError

__all__ = ["JobState", "Job", "spice_batch_jobs"]

_job_ids = itertools.count(1)


class JobState(Enum):
    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"


@dataclass
class Job:
    """One batch job.

    Attributes
    ----------
    name:
        Human-readable tag (e.g. ``"smdje-k100-v12.5-rep3"``).
    procs:
        Processors required (exclusive allocation).
    duration_hours:
        True compute duration on a reference-speed resource; the scheduler
        divides by the assigned resource's speed factor.
    steering_required:
        Interactive jobs additionally need external connectivity (a
        hidden-IP resource without a gateway cannot host them).
    checkpointable:
        The application writes checkpoints (RealityGrid-enabled): when the
        job is killed by an outage, the completed fraction survives and a
        requeue resumes from it instead of recomputing.
    completed_fraction:
        Fraction of the work already done (set by the scheduler on kill
        for checkpointable jobs; consumed on the next start).
    """

    name: str
    procs: int
    duration_hours: float
    steering_required: bool = False
    checkpointable: bool = False
    completed_fraction: float = 0.0
    job_id: int = field(init=False, default_factory=lambda: next(_job_ids))
    state: JobState = JobState.PENDING
    resource: Optional[str] = None
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    requeues: int = 0
    #: Every resource the job was ever submitted to, in order — the
    #: provenance trail a dead-letter entry records.
    site_history: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.procs <= 0:
            raise ConfigurationError(f"job needs positive procs, got {self.procs}")
        if self.duration_hours <= 0:
            raise ConfigurationError(
                f"job needs positive duration, got {self.duration_hours}"
            )

    @property
    def cpu_hours(self) -> float:
        """Nominal CPU-hours (reference speed)."""
        return self.procs * self.duration_hours

    @property
    def remaining_duration_hours(self) -> float:
        """Reference-speed duration still to compute (checkpoint-aware)."""
        return self.duration_hours * (1.0 - self.completed_fraction)

    @property
    def wait_hours(self) -> Optional[float]:
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def reset_for_requeue(self) -> None:
        """Return a killed job to a submittable state.

        Checkpointable jobs keep their ``completed_fraction`` (resume);
        others restart from zero.
        """
        self.state = JobState.PENDING
        self.resource = None
        self.start_time = None
        self.end_time = None
        self.requeues += 1
        if not self.checkpointable:
            self.completed_fraction = 0.0


#: The batch's nominal cost rate (CPU-hours per simulated ns), the
#: physical time each job simulates (ns), and the processor counts its
#: jobs alternate between.
BATCH_CPU_HOURS_PER_NS = 3000.0
BATCH_NS_PER_JOB = 0.35
BATCH_PROCS = (128, 256)


def spice_batch_jobs(n_jobs: int = 72) -> List[Job]:
    """The paper's production batch: 72 SMD-JE simulations.

    Each job simulates :data:`BATCH_NS_PER_JOB` of physical time at the
    paper's cost rate; processor counts alternate between the paper's 128
    and 256 ("depending upon the machine used").  The full batch is
    72 * 0.35 ns * 3000 CPU-h/ns = 75,600 nominal CPU-hours at reference
    speed, the paper's ~75,000 CPU-h.
    """
    if n_jobs <= 0:
        raise ConfigurationError("n_jobs must be positive")
    jobs = []
    for i in range(n_jobs):
        procs = BATCH_PROCS[i % len(BATCH_PROCS)]
        cpu_hours = BATCH_NS_PER_JOB * BATCH_CPU_HOURS_PER_NS
        jobs.append(
            Job(
                name=f"smdje-{i:02d}",
                procs=procs,
                duration_hours=cpu_hours / procs,
            )
        )
    return jobs
