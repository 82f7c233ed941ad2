"""alpha-hemolysin pore, CG ssDNA, implicit solvent and reduced models.

This package is the biological substrate of the reproduction: everything
the paper gets from the hemolysin crystal structure, the lipid bilayer and
explicit water is modelled here as analytic effective potentials plus a
coarse-grained chain.
"""

from .geometry import PoreGeometry, DEFAULT_GEOMETRY
from .landscape import AxialLandscape, default_hemolysin_landscape
from .hemolysin import HemolysinPore
from .membrane import MembraneSlab
from .dna import build_ssdna
from .solvent import ImplicitSolvent
from .assembly import TranslocationSystem, build_translocation_simulation
from .reduced import (
    ReducedTranslocationModel,
    default_reduced_potential,
    Potential1D,
)
from .voltage import tilt_from_voltage, voltage_from_tilt
from .tabulated import TabulatedPotential1D, full_axis_chain_potential

__all__ = [
    "PoreGeometry",
    "DEFAULT_GEOMETRY",
    "AxialLandscape",
    "default_hemolysin_landscape",
    "HemolysinPore",
    "MembraneSlab",
    "build_ssdna",
    "ImplicitSolvent",
    "TranslocationSystem",
    "build_translocation_simulation",
    "ReducedTranslocationModel",
    "default_reduced_potential",
    "Potential1D",
    "tilt_from_voltage",
    "voltage_from_tilt",
    "TabulatedPotential1D",
    "full_axis_chain_potential",
]
