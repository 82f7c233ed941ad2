"""Cross-site job migration via checkpoints.

RealityGrid's checkpoint capability plus the federation's connectivity give
SPICE a recovery path the paper's Section V-C4 experience begged for: when a
resource fails (or a better queue opens), ship the simulation's checkpoint
across the network and resume elsewhere instead of recomputing from zero.

:class:`CheckpointMigrator` prices that move: the transfer time of a
checkpoint (paper scale: :func:`paper_checkpoint_bytes`) over the
inter-site link.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..net.qos import QoSSpec

__all__ = ["CheckpointMigrator", "paper_checkpoint_bytes"]

#: Atoms in the paper's hemolysin + DNA + solvent system.
PAPER_ATOMS = 300_000


def paper_checkpoint_bytes() -> int:
    """Checkpoint size at paper scale: positions + velocities, double
    precision, plus ~10% metadata."""
    raw = PAPER_ATOMS * 3 * 8 * 2
    return int(raw * 1.1)


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
