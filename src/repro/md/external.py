"""External (one-body) force terms.

These adapt field-like potentials — the hemolysin pore, the membrane slab,
positional restraints, steering forces from the interactive visualizer — to
the :class:`~repro.md.forces.Force` interface.  :class:`ExternalFieldForce`
takes a replica stack whole, as its fields do; the restraint and steering
terms are written for ``(N, 3)`` positions only, so in a stack the engine
evaluates them once per replica (:func:`~repro.md.kernels.per_replica`).
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np

from ..errors import ConfigurationError
from .kernels import Energy, scatter_add

__all__ = [
    "FieldPotential",
    "ExternalFieldForce",
    "HarmonicRestraintForce",
    "SteeringForce",
]


class FieldPotential(Protocol):
    """Anything that maps positions to (energy, per-particle forces), over
    an optional leading replica axis: a float for ``(N, 3)`` positions,
    ``(R,)`` energies — each the bits of that replica's solo call — for an
    ``(R, N, 3)`` stack, forces shaped like the positions either way.

    Implemented by :class:`repro.pore.hemolysin.HemolysinPore` and
    :class:`repro.pore.membrane.MembraneSlab`.  A field that only
    understands ``(N, 3)`` is not for :class:`ExternalFieldForce`: wrap it
    in a plain term (``compute(positions, forces)``, no ``stackable``
    mark), which the engine runs once per replica.
    """

    def energy_and_forces(self, positions: np.ndarray) -> Tuple[Energy, np.ndarray]:
        ...


class ExternalFieldForce:
    """Adapts a :class:`FieldPotential` acting on a subset of particles."""

    stackable = True

    def __init__(self, field: FieldPotential, indices: Optional[np.ndarray] = None) -> None:
        self.field = field
        self._indices = None if indices is None else np.asarray(indices, dtype=np.intp)

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        if self._indices is None:
            energy, f = self.field.energy_and_forces(positions)
            forces += f
        else:
            picked = positions[..., self._indices, :]
            energy, f = self.field.energy_and_forces(picked)
            scatter_add(forces, self._indices, f)
        return energy if positions.ndim > 2 else float(energy)


class HarmonicRestraintForce:
    """Per-particle harmonic position restraints ``U = 0.5 k |r - r_anchor|^2``.

    Used to hold the pore/membrane scaffold in place and for the
    "suitable constraints" determined during the haptic phase (Section III).
    """

    def __init__(self, indices: np.ndarray, anchors: np.ndarray, k: float) -> None:
        if k < 0.0:
            raise ConfigurationError(f"restraint stiffness must be >= 0, got {k}")
        self._indices = np.asarray(indices, dtype=np.intp)
        self._anchors = np.asarray(anchors, dtype=np.float64)
        if self._anchors.shape != (self._indices.size, 3):
            raise ConfigurationError("anchors must be (len(indices), 3)")
        self.k = float(k)

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> float:
        dr = positions[self._indices] - self._anchors
        energy = float(0.5 * self.k * np.sum(dr * dr))
        np.add.at(forces, self._indices, -self.k * dr)
        return energy


class SteeringForce:
    """A mutable per-call force injected by an interactive steerer.

    The IMD session (Section III of the paper) updates this object from
    visualizer/haptic messages between MD steps; it can target a changing
    selection and defaults to "off".
    """

    def __init__(self, n_particles: int) -> None:
        self.n_particles = int(n_particles)
        self._indices: Optional[np.ndarray] = None
        self._fvec = np.zeros(3, dtype=np.float64)

    def apply(self, indices: np.ndarray, force_vector: np.ndarray) -> None:
        """Set the active steering force (from a steering message)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_particles):
            raise ConfigurationError("steering indices out of range")
        self._indices = idx
        self._fvec = np.asarray(force_vector, dtype=np.float64).reshape(3)

    def clear(self) -> None:
        """Remove the steering force."""
        self._indices = None

    @property
    def active(self) -> bool:
        return self._indices is not None and self._indices.size > 0

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> float:
        if not self.active:
            return 0.0
        assert self._indices is not None
        forces[self._indices] += self._fvec
        return float(-np.sum(positions[self._indices] @ self._fvec))
