"""Axisymmetric geometry of the alpha-hemolysin pore.

The pore is described by its radius profile ``R(z)`` along the membrane
normal (the z axis, the paper's translocation coordinate).  Dimensions
follow the alpha-hemolysin crystal structure (Song et al. 1996) as used by
the first all-atom simulations the paper cites (Aksimentiev et al. 2005):

* a wide extracellular *vestibule* (cap) roughly 45 A across,
* a *constriction* of ~14-15 A diameter where the vestibule meets the stem
  (the paper's Fig. 3 notes the DNA strand stretching "near the middle" at
  this constriction),
* a 14-strand *beta-barrel* stem of ~20 A diameter crossing the membrane.

The profile is an analytic C^1 function so forces are smooth.  The sevenfold
symmetry of the heptameric protein (paper Fig. 1b) enters as a small angular
modulation of the wall radius.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["PoreGeometry", "DEFAULT_GEOMETRY"]


class PoreGeometry:
    """Analytic radius profile of an hourglass-like pore.

    The axial coordinate runs from ``z_top`` (extracellular vestibule mouth,
    positive z) down through ``z_constriction`` to ``z_bottom`` (trans side
    exit).  All lengths in angstrom.
    """

    #: Interior radius of the cap cavity.
    vestibule_radius = 22.5
    #: Interior radius of the transmembrane beta-barrel.
    barrel_radius = 10.0
    #: Radius at the narrowest point.
    constriction_radius = 7.0
    #: Axial half-width of the constriction's Gaussian neck.
    constriction_width = 6.0
    #: Axial stations of vestibule mouth, constriction, and barrel exit.
    z_top = 50.0
    z_constriction = 0.0
    z_bottom = -50.0
    #: Amplitude (A) of the cos(7 phi) wall modulation (heptamer symmetry).
    sevenfold_amplitude = 0.6

    @property
    def length(self) -> float:
        """Total pore length along z."""
        return self.z_top - self.z_bottom

    def radius(self, z: np.ndarray | float) -> np.ndarray:
        """Axisymmetric interior radius ``R(z)``.

        Smoothly blends vestibule radius (above the constriction) into the
        barrel radius (below), with a Gaussian neck of depth set by
        ``constriction_radius`` at ``z_constriction``.  Outside the pore the
        profile continues at the mouth radii (the membrane/protein exterior
        is handled by :class:`repro.pore.membrane.MembraneSlab`).
        """
        zz = np.asarray(z, dtype=np.float64)
        # Logistic blend between barrel (below) and vestibule (above).
        blend_width = 0.15 * self.length
        s = 1.0 / (1.0 + np.exp(-(zz - self.z_constriction) / blend_width * 4.0))
        base = self.barrel_radius + (self.vestibule_radius - self.barrel_radius) * s
        # Gaussian neck carved from the local base down to exactly the
        # constriction radius at z_constriction.
        g = np.exp(-0.5 * ((zz - self.z_constriction) / self.constriction_width) ** 2)
        return base - (base - self.constriction_radius) * g

    def radius_derivative(self, z: np.ndarray | float) -> np.ndarray:
        """Analytic ``dR/dz`` matching :meth:`radius`."""
        zz = np.asarray(z, dtype=np.float64)
        blend_width = 0.15 * self.length
        a = 4.0 / blend_width
        s = 1.0 / (1.0 + np.exp(-(zz - self.z_constriction) * a))
        dbase = (self.vestibule_radius - self.barrel_radius) * s * (1.0 - s) * a
        u = (zz - self.z_constriction) / self.constriction_width
        g = np.exp(-0.5 * u**2)
        dg = g * (-u / self.constriction_width)
        base = self.barrel_radius + (self.vestibule_radius - self.barrel_radius) * s
        # R = base - (base - Rc) g  =>  R' = base'(1 - g) - (base - Rc) g'.
        return dbase * (1.0 - g) - (base - self.constriction_radius) * dg

    def min_radius(self) -> float:
        """Narrowest radius over the pore length (sampled)."""
        zz = np.linspace(self.z_bottom, self.z_top, 2001)
        return float(self.radius(zz).min())

    def radius_profile(self, n: int = 201) -> tuple[np.ndarray, np.ndarray]:
        """``(z, R(z))`` arrays over the pore extent (used by Fig. 1 output)."""
        if n < 2:
            raise ConfigurationError("need at least 2 profile samples")
        zz = np.linspace(self.z_bottom, self.z_top, n)
        return zz, self.radius(zz)


#: The pore geometry of the reproduction.
DEFAULT_GEOMETRY = PoreGeometry()
