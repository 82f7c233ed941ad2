"""Particle system state for the coarse-grained MD engine.

This is the substrate that replaces the paper's all-atom NAMD system: a
structure-of-arrays container holding positions, velocities, masses, charges
and integer type codes, with the handful of bulk operations (kinetic energy,
instantaneous temperature, centre of mass) every other layer needs.

All arrays are C-contiguous ``float64`` and are mutated in place by the
integrators — views handed out by properties are the live arrays, not copies
(per the hpc-parallel guides: views, not copies, in hot paths).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike, as_generator
from ..units import KB, MASS_TO_KCAL, ROOM_TEMPERATURE

__all__ = ["ParticleSystem"]


class ParticleSystem:
    """State of ``n`` point particles in 3-D.

    Parameters
    ----------
    positions:
        ``(n, 3)`` array of coordinates in angstrom.
    masses:
        ``(n,)`` masses in amu; must be positive.
    velocities:
        Optional ``(n, 3)`` velocities in A/ns (zeros if omitted).
    charges:
        Optional ``(n,)`` charges in units of the elementary charge.
    types:
        Optional ``(n,)`` integer type codes (default all zero); nonbonded
        force terms index their per-type parameter tables with these.

    Boundaries are open, as the pore/implicit-solvent model needs.
    """

    def __init__(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        velocities: Optional[np.ndarray] = None,
        charges: Optional[np.ndarray] = None,
        types: Optional[np.ndarray] = None,
    ) -> None:
        pos = np.ascontiguousarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ConfigurationError(f"positions must be (n, 3), got {pos.shape}")
        n = pos.shape[0]
        if n == 0:
            raise ConfigurationError("a ParticleSystem needs at least one particle")

        m = np.ascontiguousarray(masses, dtype=np.float64)
        if m.shape != (n,):
            raise ConfigurationError(f"masses must be ({n},), got {m.shape}")
        if np.any(m <= 0.0):
            raise ConfigurationError("all masses must be positive")

        if velocities is None:
            vel = np.zeros((n, 3), dtype=np.float64)
        else:
            vel = np.ascontiguousarray(velocities, dtype=np.float64)
            if vel.shape != (n, 3):
                raise ConfigurationError(f"velocities must be ({n}, 3), got {vel.shape}")

        if charges is None:
            q = np.zeros(n, dtype=np.float64)
        else:
            q = np.ascontiguousarray(charges, dtype=np.float64)
            if q.shape != (n,):
                raise ConfigurationError(f"charges must be ({n},), got {q.shape}")

        if types is None:
            t = np.zeros(n, dtype=np.int64)
        else:
            t = np.ascontiguousarray(types, dtype=np.int64)
            if t.shape != (n,):
                raise ConfigurationError(f"types must be ({n},), got {t.shape}")

        self._positions = pos
        self._velocities = vel
        self._masses = m
        self._charges = q
        self._types = t
        # Cached kinetic mass (amu -> kcal/mol conversion folded in) so the
        # integrators never re-multiply per step.
        self._kinetic_masses = m * MASS_TO_KCAL

    # -- basic introspection -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of particles."""
        return self._positions.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def positions(self) -> np.ndarray:
        """Live ``(n, 3)`` coordinate array (angstrom)."""
        return self._positions

    @property
    def velocities(self) -> np.ndarray:
        """Live ``(n, 3)`` velocity array (A/ns)."""
        return self._velocities

    @property
    def masses(self) -> np.ndarray:
        """``(n,)`` masses in amu (read as-is; do not mutate)."""
        return self._masses

    @property
    def kinetic_masses(self) -> np.ndarray:
        """Masses pre-multiplied by the amu->kcal/mol conversion factor.

        ``0.5 * kinetic_masses * v**2`` is directly in kcal/mol.
        """
        return self._kinetic_masses

    @property
    def charges(self) -> np.ndarray:
        """``(n,)`` charges in elementary-charge units."""
        return self._charges

    @property
    def types(self) -> np.ndarray:
        """``(n,)`` integer particle type codes."""
        return self._types

    # -- bulk physics --------------------------------------------------------

    def kinetic_energy(self) -> float:
        """Total kinetic energy in kcal/mol."""
        v2 = np.einsum("ij,ij->i", self._velocities, self._velocities)
        return float(0.5 * np.dot(self._kinetic_masses, v2))

    def temperature(self) -> float:
        """Instantaneous kinetic temperature in kelvin (3n degrees of freedom)."""
        dof = 3 * self.n
        return 2.0 * self.kinetic_energy() / (dof * KB)

    def center_of_mass(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Mass-weighted centre of the selected particles (all by default)."""
        if indices is None:
            m = self._masses
            p = self._positions
        else:
            idx = np.asarray(indices, dtype=np.intp)
            m = self._masses[idx]
            p = self._positions[idx]
        return np.asarray(m @ p / m.sum(), dtype=np.float64)

    def initialize_velocities(
        self, temperature: float = ROOM_TEMPERATURE, seed: SeedLike = None,
    ) -> None:
        """Draw Maxwell-Boltzmann velocities at ``temperature`` in place.

        The total linear momentum is removed, which prevents the confined
        pore system drifting through the membrane.
        """
        rng = as_generator(seed)
        sigma = np.sqrt(KB * temperature / self._kinetic_masses)
        self._velocities[:] = rng.standard_normal((self.n, 3)) * sigma[:, None]
        if self.n > 1:
            p = (self._masses[:, None] * self._velocities).sum(axis=0)
            self._velocities -= p / self._masses.sum()

    def validate(self) -> None:
        """Raise :class:`SimulationError` if any coordinate or velocity is
        non-finite — the standard "simulation exploded" check."""
        if not np.all(np.isfinite(self._positions)):
            raise SimulationError("non-finite particle positions")
        if not np.all(np.isfinite(self._velocities)):
            raise SimulationError("non-finite particle velocities")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep copy of the mutable state (used by checkpointing)."""
        return {
            "positions": self._positions.copy(),
            "velocities": self._velocities.copy(),
        }

    def restore(self, snap: dict) -> None:
        """Restore state saved by :meth:`snapshot` (in place)."""
        self._positions[:] = snap["positions"]
        self._velocities[:] = snap["velocities"]

    def copy(self) -> "ParticleSystem":
        """Independent deep copy (used by simulation cloning)."""
        return ParticleSystem(
            positions=self._positions.copy(),
            masses=self._masses.copy(),
            velocities=self._velocities.copy(),
            charges=self._charges.copy(),
            types=self._types.copy(),
        )
