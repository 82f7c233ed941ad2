"""Implicit-solvent friction model.

The explicit water of the paper's 300k-atom system enters the CG model only
through (i) the Langevin heat bath and (ii) the friction felt by
each bead.  Friction inside the pore is higher than in bulk — confined water
and wall interactions slow the DNA — which is what makes fast pulling
*through the pore* strongly irreversible (the systematic-error mechanism in
Fig. 4).

Units: friction coefficients zeta are kcal ns / (mol A^2), so the diffusion
constant is ``kB T / zeta`` in A^2/ns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import KB, ROOM_TEMPERATURE

__all__ = ["ImplicitSolvent"]


@dataclass(frozen=True)
class ImplicitSolvent:
    """Bulk + in-pore friction for CG beads.

    Attributes
    ----------
    bulk_friction:
        Per-bead drag in bulk solvent.  The default gives a nucleotide
        diffusion constant of ~100 A^2/ns at 300 K, the right order for a
        hydrated nucleotide.
    pore_friction_factor:
        Multiplier applied inside the pore (confinement slows diffusion).
    temperature:
        Bath temperature (K).
    """

    bulk_friction: float = 0.006
    pore_friction_factor: float = 3.0
    temperature: float = ROOM_TEMPERATURE

    def __post_init__(self) -> None:
        if self.bulk_friction <= 0.0:
            raise ConfigurationError("bulk_friction must be positive")
        if self.pore_friction_factor < 1.0:
            raise ConfigurationError("pore friction cannot be below bulk")
        if self.temperature <= 0.0:
            raise ConfigurationError("temperature must be positive")

    def diffusion_constant(self, in_pore: bool = False) -> float:
        """``kB T / zeta`` in A^2/ns."""
        return KB * self.temperature / self.friction(in_pore)

    def friction(self, in_pore: bool = False) -> float:
        """Per-bead friction coefficient."""
        return self.bulk_friction * (self.pore_friction_factor if in_pore else 1.0)

    def langevin_rate(self, bead_mass: float, in_pore: bool = False) -> float:
        """Equivalent Langevin collision rate gamma (1/ns) for a bead of the
        given mass: ``zeta / (m * MASS_TO_KCAL)``."""
        from ..units import MASS_TO_KCAL

        if bead_mass <= 0.0:
            raise ConfigurationError("bead_mass must be positive")
        return self.friction(in_pore) / (bead_mass * MASS_TO_KCAL)
