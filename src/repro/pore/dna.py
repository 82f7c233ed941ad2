"""Coarse-grained single-stranded DNA builder.

One bead per nucleotide, the common CG resolution for translocation models:

* mass ~ 312 amu (average nucleotide monophosphate),
* backbone FENE bonds (rest spacing ~6.5 A rise per base for stretched
  ssDNA; rmax allows the stretching the paper's Fig. 3 shows at the
  constriction),
* harmonic angles giving ssDNA's short persistence length,
* charge -1 e per phosphate (screened by Debye-Hueckel at the force level),
* WCA excluded volume.

The builder returns plain arrays + a :class:`~repro.md.topology.Topology`
so callers assemble the force stack they need (see
:func:`repro.pore.assembly.build_translocation_simulation`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..md.topology import Topology, TopologyBuilder
from ..rng import SeedLike, as_generator

__all__ = ["build_ssdna"]

# Force field of the CG bead-spring chain: energies kcal/mol, lengths A,
# masses amu.
BEAD_MASS = 312.0
BEAD_CHARGE = -1.0
#: Contour spacing per nucleotide.
RISE = 6.5
#: FENE stiffness (kcal/mol/A^2); the bond breaks at ``FENE_RMAX_FACTOR * RISE``.
FENE_K = 5.0
FENE_RMAX_FACTOR = 1.6
#: Bending stiffness (kcal/mol/rad^2) about a straight rest angle.
ANGLE_K = 2.0
ANGLE_THETA0 = float(np.pi)
WCA_EPSILON = 0.3
WCA_SIGMA = 5.0
#: Transverse scatter (A) of the initial layout, so it is not a
#: pathological perfectly straight line.
WIGGLE = 0.4

#: The chain is laid out along +z; ``_E1`` and ``_E2`` span the plane of
#: the transverse wiggle.
_DIRECTION = np.array([0.0, 0.0, 1.0])
_E1 = np.array([0.0, 1.0, 0.0])
_E2 = np.array([-1.0, 0.0, 0.0])


def build_ssdna(
    n_bases: int,
    start: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Topology]:
    """Build an ``n_bases``-nucleotide ssDNA chain.

    The chain is laid out along +z from ``start`` with spacing
    :data:`RISE` and a random transverse scatter of :data:`WIGGLE`.

    Returns
    -------
    positions : (n, 3) float array
    masses : (n,) float array
    charges : (n,) float array
    topology : Topology with FENE bond params ``(k, rmax)`` and angles.
    """
    if n_bases < 2:
        raise ConfigurationError(f"need at least 2 bases, got {n_bases}")
    rng = as_generator(seed)
    s = np.arange(n_bases, dtype=np.float64) * RISE
    positions = (np.asarray(start, dtype=np.float64)[None, :]
                 + s[:, None] * _DIRECTION[None, :])
    positions += (
        rng.normal(scale=WIGGLE, size=n_bases)[:, None] * _E1[None, :]
        + rng.normal(scale=WIGGLE, size=n_bases)[:, None] * _E2[None, :]
    )

    masses = np.full(n_bases, BEAD_MASS, dtype=np.float64)
    charges = np.full(n_bases, BEAD_CHARGE, dtype=np.float64)

    builder = TopologyBuilder(n_bases)
    rmax = FENE_RMAX_FACTOR * RISE
    for i in range(n_bases - 1):
        builder.add_bond(i, i + 1, FENE_K, rmax)
    for i in range(n_bases - 2):
        builder.add_angle(i, i + 1, i + 2, ANGLE_K, ANGLE_THETA0)

    return positions, masses, charges, builder.build()
