"""Lipid-membrane slab potential.

The paper's system embeds the hemolysin stem in a lipid bilayer (Fig. 1).
For the CG model the bilayer is an impenetrable slab: beads attempting to
enter the membrane region *outside* the pore lumen feel a half-harmonic
repulsion pushing them out along z.  A smooth radial envelope exempts the
pore lumen so the only membrane crossing is through the pore — which is the
whole point of the translocation experiment.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..md.kernels import Energy, no_energy

__all__ = ["MembraneSlab"]


class MembraneSlab:
    """Half-harmonic slab between ``z_center - half_thickness`` and
    ``z_center + half_thickness``, with a circular hole of radius
    ``pore_radius`` around the z axis.

    Parameters
    ----------
    z_center:
        Mid-plane of the bilayer in A (default matches the barrel region of
        the default pore geometry).
    half_thickness:
        Half the bilayer thickness in A (~15-20 for a lipid bilayer).
    pore_radius:
        Radius of the exempt cylindrical hole (should exceed the pore's
        outer wall so the wall term, not the membrane, governs the lumen).
    stiffness:
        Repulsion constant in kcal/mol/A^2.
    edge_width:
        Smoothing width (A) of the radial hole envelope.
    """

    def __init__(
        self,
        z_center: float = -30.0,
        half_thickness: float = 15.0,
        pore_radius: float = 13.0,
        stiffness: float = 5.0,
        edge_width: float = 2.0,
    ) -> None:
        if half_thickness <= 0 or pore_radius <= 0 or stiffness <= 0 or edge_width <= 0:
            raise ConfigurationError("membrane parameters must be positive")
        self.z_center = float(z_center)
        self.half_thickness = float(half_thickness)
        self.pore_radius = float(pore_radius)
        self.stiffness = float(stiffness)
        self.edge_width = float(edge_width)

    def energy_and_forces(self, positions: np.ndarray) -> Tuple[Energy, np.ndarray]:
        """Slab energy and per-particle forces for ``(n, 3)`` positions, or
        one energy per replica of an ``(R, n, 3)`` stack."""
        pos = np.asarray(positions, dtype=np.float64)
        x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
        r = np.sqrt(x**2 + y**2)
        dz = z - self.z_center
        # Penetration depth into the slab (positive inside).
        pen = self.half_thickness - np.abs(dz)
        inside = pen > 0.0

        forces = np.zeros_like(pos)
        # A shortcut only: no bead in the slab means p = 0, hence +0.0s, below.
        if not np.any(inside):
            return no_energy(pos), forces

        # Radial envelope: 0 in the hole, 1 in the bulk membrane.
        xarg = (r - self.pore_radius) / self.edge_width
        env = 1.0 / (1.0 + np.exp(-np.clip(xarg, -40.0, 40.0)))
        denv_dr = env * (1.0 - env) / self.edge_width

        p = np.where(inside, pen, 0.0)
        k = self.stiffness
        energy = 0.5 * k * np.sum(env * p**2, axis=-1)

        # dU/dz = k env p * d(pen)/dz = -k env p sign(dz) -> force +k env p sign(dz)
        sign = np.sign(dz)
        # A bead exactly at the mid-plane has sign 0: unstable equilibrium,
        # zero force is the correct gradient there.
        forces[..., 2] += k * env * p * sign
        # dU/dr = 0.5 k p^2 denv_dr -> radial force inward toward the hole.
        f_r = -0.5 * k * p**2 * denv_dr
        safe_r = np.where(r > 1e-12, r, 1.0)
        forces[..., 0] += f_r * x / safe_r
        forces[..., 1] += f_r * y / safe_r
        return energy, forces
