"""Synthetic background workload: other people's jobs.

The default contention model (``background_load`` shaving a resource's
exposed capacity) is deterministic and optimistic — real queues make you
*wait behind* other users' jobs, not just use fewer processors.  This module
provides the explicit alternative: a Poisson stream of competing jobs with a
realistic width/duration mix, submitted to the same queue the campaign uses.

The contention-model ablation benchmark compares the two: with explicit
contention the 72-job campaign's makespan moves from ~a day toward the
paper's "just under a week".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, as_generator
from .jobs import Job
from .scheduler import BatchQueue

__all__ = ["BackgroundWorkload"]


@dataclass
class BackgroundWorkload:
    """Poisson stream of competing batch jobs.

    Parameters
    ----------
    target_utilization:
        Long-run fraction of the queue's capacity the stream tries to keep
        busy (arrival rate is derived from it).
    """

    target_utilization: float = 0.5

    #: Exponential mean of job durations.
    MEAN_DURATION_HOURS = 12.0
    #: Candidate job widths as fractions of capacity (drawn uniformly).
    WIDTH_FRACTIONS = (0.1, 0.25, 0.5, 0.75)

    def __post_init__(self) -> None:
        if not (0.0 < self.target_utilization < 1.0):
            raise ConfigurationError("target_utilization must be in (0, 1)")

    def inject(
        self,
        queue: BatchQueue,
        horizon_hours: float,
        seed: SeedLike = None,
    ) -> List[Job]:
        """Schedule background arrivals on the queue's loop over a horizon.

        Returns the injected jobs (for inspection).  Arrival rate lambda is
        chosen so that ``lambda * E[width] * E[duration] =
        target_utilization * capacity``.
        """
        if horizon_hours <= 0:
            raise ConfigurationError("horizon must be positive")
        rng = as_generator(seed)
        mean_width = float(np.mean(self.WIDTH_FRACTIONS)) * queue.capacity
        rate = (self.target_utilization * queue.capacity
                / (mean_width * self.MEAN_DURATION_HOURS))
        jobs: List[Job] = []
        t = float(rng.exponential(1.0 / rate))
        i = 0
        while t < horizon_hours:
            frac = float(rng.choice(self.WIDTH_FRACTIONS))
            procs = max(int(frac * queue.capacity), 1)
            duration = float(rng.exponential(self.MEAN_DURATION_HOURS))
            duration = max(duration, 0.1)
            job = Job(f"bg-{queue.resource.name}-{i}", procs=procs,
                      duration_hours=duration)
            jobs.append(job)
            queue.loop.schedule_at(t, (lambda j=job: queue.submit(j)))
            t += float(rng.exponential(1.0 / rate))
            i += 1
        return jobs
