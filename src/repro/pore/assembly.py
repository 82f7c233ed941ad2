"""Assembly of the full 3-D CG translocation system.

One call builds the complete SPICE model system: ssDNA threaded at the pore
mouth, the hemolysin pore field, the membrane slab, intra-chain forces, and
a Langevin integrator parameterized from the implicit solvent — the Fig. 1
system, ready to simulate or steer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..md import (
    DebyeHuckelForce,
    ExternalFieldForce,
    FENEBondForce,
    HarmonicAngleForce,
    LangevinBAOAB,
    ParticleSystem,
    Simulation,
    WCAForce,
)
from ..rng import SeedLike, as_generator, spawn
from ..units import ROOM_TEMPERATURE
from .dna import BEAD_MASS, WCA_EPSILON, WCA_SIGMA, build_ssdna
from .geometry import DEFAULT_GEOMETRY
from .hemolysin import HemolysinPore
from .membrane import MembraneSlab
from .solvent import ImplicitSolvent

__all__ = ["TranslocationSystem", "build_translocation_simulation"]

#: Langevin timestep in ns (20 fs — safe for the CG force constants in use).
DT_NS = 2.0e-5


@dataclass
class TranslocationSystem:
    """Bundle returned by :func:`build_translocation_simulation`."""

    simulation: Simulation
    pore: HemolysinPore
    membrane: MembraneSlab
    dna_indices: np.ndarray

    @property
    def dna_com_z(self) -> float:
        """Axial centre of mass of the DNA beads (the reaction coordinate)."""
        return float(self.simulation.system.center_of_mass(self.dna_indices)[2])


def build_translocation_simulation(
    n_bases: int = 12,
    *,
    start_z: Optional[float] = None,
    seed: SeedLike = None,
) -> TranslocationSystem:
    """Build the ssDNA + hemolysin + membrane CG system.

    The system is a pure function of ``(n_bases, start_z, seed)``: the pore
    is :data:`~repro.pore.geometry.DEFAULT_GEOMETRY` with its default
    landscape, the chain uses the :mod:`repro.pore.dna` force field in
    :class:`ImplicitSolvent` at room temperature, the screened
    electrostatics is always in the force stack, and the Langevin step is
    :data:`DT_NS`.  :func:`repro.store.pulling_task_3d` keys 3-D pulls on
    exactly these three inputs.

    Parameters
    ----------
    n_bases:
        Number of nucleotides (12 spans roughly the vestibule-to-barrel
        distance at the CG rise).
    start_z:
        z of the first (leading) base; defaults to just above the
        constriction so a downward pull drives translocation.
    """
    if n_bases < 2:
        raise ConfigurationError("n_bases must be at least 2")
    solvent = ImplicitSolvent()
    rng = as_generator(seed)
    chain_rng, vel_rng, integ_rng = spawn(rng, 3)

    z0 = start_z if start_z is not None else DEFAULT_GEOMETRY.z_constriction + 12.0
    positions, masses, charges, topology = build_ssdna(
        n_bases, start=(0.0, 0.0, z0), seed=chain_rng)
    system = ParticleSystem(positions, masses, charges=charges)
    system.initialize_velocities(seed=vel_rng)

    pore = HemolysinPore()
    membrane = MembraneSlab()

    # Kremer-Grest convention: WCA acts between ALL bead pairs, including
    # bonded ones — FENE alone is purely attractive, so excluding bonded
    # pairs from the excluded volume would collapse the backbone.  Only the
    # screened electrostatics excludes 1-2/1-3 pairs.
    exclusions = topology.exclusion_pairs()
    forces: list = [
        FENEBondForce(topology),
        HarmonicAngleForce(topology),
        WCAForce(
            system.types,
            epsilon=np.array([WCA_EPSILON]),
            sigma=np.array([WCA_SIGMA]),
        ),
        ExternalFieldForce(pore),
        ExternalFieldForce(membrane),
        DebyeHuckelForce(charges, exclusions=exclusions),
    ]

    gamma = solvent.langevin_rate(BEAD_MASS)
    integrator = LangevinBAOAB(DT_NS, friction=gamma,
                               temperature=ROOM_TEMPERATURE, seed=integ_rng)
    sim = Simulation(system, forces, integrator)
    dna_indices = np.arange(n_bases, dtype=np.intp)
    return TranslocationSystem(
        simulation=sim,
        pore=pore,
        membrane=membrane,
        dna_indices=dna_indices,
    )
