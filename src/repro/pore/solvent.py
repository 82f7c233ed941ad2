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

from ..errors import ConfigurationError
from ..units import KB, MASS_TO_KCAL, ROOM_TEMPERATURE

__all__ = ["ImplicitSolvent"]


class ImplicitSolvent:
    """Bulk + in-pore friction for CG beads at room temperature."""

    #: Per-bead drag in bulk solvent: a nucleotide diffusion constant of
    #: ~100 A^2/ns at 300 K, the right order for a hydrated nucleotide.
    BULK_FRICTION = 0.006
    #: Multiplier applied inside the pore (confinement slows diffusion).
    PORE_FRICTION_FACTOR = 3.0

    def diffusion_constant(self, in_pore: bool = False) -> float:
        """``kB T / zeta`` in A^2/ns."""
        return KB * ROOM_TEMPERATURE / self.friction(in_pore)

    def friction(self, in_pore: bool = False) -> float:
        """Per-bead friction coefficient."""
        return self.BULK_FRICTION * (self.PORE_FRICTION_FACTOR if in_pore else 1.0)

    def langevin_rate(self, bead_mass: float) -> float:
        """Equivalent Langevin collision rate gamma (1/ns) of a bead of the
        given mass inside the pore: ``zeta / (m * MASS_TO_KCAL)``."""
        if bead_mass <= 0.0:
            raise ConfigurationError("bead_mass must be positive")
        return self.friction(in_pore=True) / (bead_mass * MASS_TO_KCAL)
