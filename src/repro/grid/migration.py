"""Cross-site job migration via checkpoints.

RealityGrid's checkpoint capability plus the federation's connectivity give
SPICE a recovery path the paper's Section V-C4 experience begged for: when a
resource fails (or a better queue opens), ship the simulation's checkpoint
across the network and resume elsewhere instead of recomputing from zero.

:class:`CheckpointMigrator` prices that move: the paper-scale checkpoint
size (:func:`paper_checkpoint_bytes`, or a caller's own size), transfer
time over the inter-site link, plus the queue wait at the destination —
set against the work a restart from scratch would redo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..net.qos import QoSSpec
from .jobs import Job

__all__ = ["MigrationPlan", "CheckpointMigrator", "paper_checkpoint_bytes"]


def paper_checkpoint_bytes(n_atoms: int = 300_000) -> int:
    """Checkpoint size at paper scale: positions + velocities, double
    precision, plus ~10% metadata."""
    if n_atoms <= 0:
        raise ConfigurationError("n_atoms must be positive")
    raw = n_atoms * 3 * 8 * 2
    return int(raw * 1.1)


@dataclass(frozen=True)
class MigrationPlan:
    """Costed decision for moving a job between sites."""

    job_name: str
    checkpoint_bytes: int
    transfer_hours: float
    destination_wait_hours: float
    recompute_hours: float

    @property
    def migration_hours(self) -> float:
        return self.transfer_hours + self.destination_wait_hours


class CheckpointMigrator:
    """Prices checkpoint transfers over a QoS link."""

    def __init__(self, qos: QoSSpec) -> None:
        self.qos = qos

    def transfer_hours(self, size_bytes: int) -> float:
        """Deterministic transfer-time estimate (serialization dominated;
        latency is negligible for GB-scale checkpoints)."""
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        return self.qos.serialization_delay_s(size_bytes) / 3600.0

    def plan(
        self,
        job: Job,
        completed_fraction: float,
        destination_wait_hours: float,
        checkpoint_bytes: Optional[int] = None,
    ) -> MigrationPlan:
        """Cost out migrating ``job`` after ``completed_fraction`` of it ran.

        ``recompute_hours`` is the work that would be redone from scratch at
        the destination if no checkpoint were shipped.
        """
        if not (0.0 <= completed_fraction < 1.0):
            raise ConfigurationError("completed_fraction must be in [0, 1)")
        if destination_wait_hours < 0:
            raise ConfigurationError("wait cannot be negative")
        size = checkpoint_bytes if checkpoint_bytes is not None else paper_checkpoint_bytes()
        return MigrationPlan(
            job_name=job.name,
            checkpoint_bytes=size,
            transfer_hours=self.transfer_hours(size),
            destination_wait_hours=destination_wait_hours,
            recompute_hours=job.duration_hours * completed_fraction
            + destination_wait_hours,
        )
