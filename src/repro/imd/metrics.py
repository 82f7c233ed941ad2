"""Interactivity metrics for IMD sessions.

The paper's operational definition of failure: "Unreliable communication
leads not only to a possible loss of interactivity, but equally seriously, a
significant slowdown of the simulation as it stalls waiting for data from
the visualization."  So the two headline numbers are the *slowdown factor*
(wall time / pure compute time — the cost multiplier on a 256-processor
allocation) and the *stall fraction*, plus the user-facing frame rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import AnalysisError

__all__ = ["InteractivityReport"]


@dataclass
class InteractivityReport:
    """Aggregated metrics of one IMD session.

    All times in (logical) seconds.
    """

    n_frames: int
    compute_time: float
    stall_time: float
    wall_time: float
    frame_stalls: List[float] = field(default_factory=list)
    round_trip_delays: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_frames <= 0:
            raise AnalysisError("a session must produce at least one frame")
        if min(self.compute_time, self.stall_time, self.wall_time) < 0:
            raise AnalysisError("times cannot be negative")

    @property
    def slowdown(self) -> float:
        """Wall time over pure compute time (1.0 = no interactivity cost)."""
        if self.compute_time == 0:
            return float("inf")
        return self.wall_time / self.compute_time

    @property
    def stall_fraction(self) -> float:
        """Fraction of wall time the simulation sat idle."""
        if self.wall_time == 0:
            return 0.0
        return self.stall_time / self.wall_time

    @property
    def fps(self) -> float:
        """Frames delivered to the scientist per wall second."""
        if self.wall_time == 0:
            return float("inf")
        return self.n_frames / self.wall_time

    @property
    def p95_round_trip(self) -> float:
        """95th-percentile steering round trip — the tail the user feels."""
        if not self.round_trip_delays:
            return 0.0
        return float(np.percentile(self.round_trip_delays, 95.0))

    def wasted_cpu_hours(self, procs: int = 256) -> float:
        """CPU-hours burnt by stalls on a ``procs``-processor allocation —
        the paper's "not acceptable" cost of steering over a bad network."""
        return self.stall_time / 3600.0 * procs
