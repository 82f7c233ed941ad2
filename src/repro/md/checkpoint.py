"""Simulation checkpointing.

RealityGrid's checkpoint-and-clone capability (paper Section III: used "for
verification and validation tests without perturbing the original
simulation") needs three primitives, provided here:

* :func:`capture` — serialize the full mutable state of a simulation.
* :func:`restore` — load a checkpoint back into a simulation, in place.
* clones are produced by the engine (:meth:`repro.md.engine.Simulation.clone`)
  by capturing and restoring into an independent copy.

Checkpoints are plain dicts of NumPy arrays/scalars, so they can be carried
through the steering services and stored in the
:class:`repro.steering.checkpoints.CheckpointTree`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import CheckpointError

__all__ = ["capture", "restore"]

_FORMAT_VERSION = 1


def capture(simulation) -> Dict[str, Any]:
    """Capture the complete mutable state of a Simulation.

    The result is self-describing and engine-version checked on restore.
    """
    system = simulation.system
    snap = system.snapshot()
    return {
        "format": _FORMAT_VERSION,
        "step": simulation.step_count,
        "time": simulation.time,
        "positions": snap["positions"],
        "velocities": snap["velocities"],
        "n_particles": system.n,
    }


def restore(simulation, checkpoint: Dict[str, Any]) -> None:
    """Load a checkpoint produced by :func:`capture` into ``simulation``."""
    if checkpoint.get("format") != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format: {checkpoint.get('format')!r}")
    if checkpoint["n_particles"] != simulation.system.n:
        raise CheckpointError(
            f"checkpoint holds {checkpoint['n_particles']} particles, "
            f"simulation has {simulation.system.n}"
        )
    simulation.system.restore(
        {"positions": checkpoint["positions"], "velocities": checkpoint["velocities"]}
    )
    simulation.step_count = int(checkpoint["step"])
    simulation.time = float(checkpoint["time"])
    simulation.invalidate_caches()
