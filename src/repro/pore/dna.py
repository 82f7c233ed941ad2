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

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..md.topology import Topology, TopologyBuilder
from ..rng import SeedLike, as_generator

__all__ = ["SSDNAParameters", "build_ssdna"]


@dataclass(frozen=True)
class SSDNAParameters:
    """Force-field parameters of the CG ssDNA bead-spring chain.

    Energies kcal/mol, lengths A, masses amu.
    """

    bead_mass: float = 312.0
    bead_charge: float = -1.0
    rise: float = 6.5              # contour spacing per nucleotide
    fene_k: float = 5.0            # FENE stiffness (kcal/mol/A^2)
    fene_rmax_factor: float = 1.6  # rmax = factor * rise
    angle_k: float = 2.0           # bending stiffness (kcal/mol/rad^2)
    angle_theta0: float = float(np.pi)
    wca_epsilon: float = 0.3
    wca_sigma: float = 5.0

    def __post_init__(self) -> None:
        if self.bead_mass <= 0 or self.rise <= 0:
            raise ConfigurationError("bead_mass and rise must be positive")
        if self.fene_rmax_factor <= 1.0:
            raise ConfigurationError("fene_rmax_factor must exceed 1 (room to stretch)")


def build_ssdna(
    n_bases: int,
    params: Optional[SSDNAParameters] = None,
    start: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    direction: Tuple[float, float, float] = (0.0, 0.0, -1.0),
    wiggle: float = 0.5,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Topology]:
    """Build an ``n_bases``-nucleotide ssDNA chain.

    The chain is laid out along ``direction`` from ``start`` with spacing
    ``params.rise`` and a small random transverse ``wiggle`` (so the initial
    configuration is not a pathological perfectly straight line).

    Returns
    -------
    positions : (n, 3) float array
    masses : (n,) float array
    charges : (n,) float array
    topology : Topology with FENE bond params ``(k, rmax)`` and angles.
    """
    if params is None:
        params = SSDNAParameters()
    if n_bases < 2:
        raise ConfigurationError(f"need at least 2 bases, got {n_bases}")
    rng = as_generator(seed)
    d = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ConfigurationError("direction must be non-zero")
    d = d / norm

    # Two unit vectors orthogonal to d for the transverse wiggle.
    ref = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)

    s = np.arange(n_bases, dtype=np.float64) * params.rise
    positions = np.asarray(start, dtype=np.float64)[None, :] + s[:, None] * d[None, :]
    if wiggle > 0.0:
        positions += (
            rng.normal(scale=wiggle, size=n_bases)[:, None] * e1[None, :]
            + rng.normal(scale=wiggle, size=n_bases)[:, None] * e2[None, :]
        )

    masses = np.full(n_bases, params.bead_mass, dtype=np.float64)
    charges = np.full(n_bases, params.bead_charge, dtype=np.float64)

    builder = TopologyBuilder(n_bases)
    rmax = params.fene_rmax_factor * params.rise
    for i in range(n_bases - 1):
        builder.add_bond(i, i + 1, params.fene_k, rmax)
    for i in range(n_bases - 2):
        builder.add_angle(i, i + 1, i + 2, params.angle_k, params.angle_theta0)

    return positions, masses, charges, builder.build()
