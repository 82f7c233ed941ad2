"""Coarse-grained molecular dynamics engine (the NAMD stand-in).

Public surface:

* :class:`~repro.md.system.ParticleSystem` — particle state.
* :class:`~repro.md.topology.Topology` / ``TopologyBuilder`` — bonded terms.
* Force terms: harmonic/FENE bonds, angles, LJ/WCA, Debye-Hueckel,
  external fields, restraints, steering forces.
* Integrators: velocity Verlet, Langevin BAOAB, Brownian dynamics.
* :class:`~repro.md.engine.Simulation` — the engine with reporters,
  steering attachment and checkpoint/clone.  The one engine: it drives a
  :class:`ParticleSystem` or, built by :func:`~repro.md.batch.stack_simulations`,
  a :class:`~repro.md.batch.ReplicaBatch` of R stacked replicas through
  the same force terms and integrators (one vectorised body each, over an
  optional leading replica axis, plus a ``"reference"`` scalar oracle).
"""

from .system import ParticleSystem
from .topology import Topology, TopologyBuilder
from .forces import Force, HarmonicBondForce, FENEBondForce, HarmonicAngleForce
from .dihedrals import DihedralForce, measure_dihedrals
from .nonbonded import LennardJonesForce, WCAForce, DebyeHuckelForce
from .external import (
    ExternalFieldForce,
    HarmonicRestraintForce,
    FlatBottomRestraintForce,
    ConstantForce,
    SteeringForce,
)
from .kernels import (
    KERNELS,
    accumulate_pair_forces,
    scatter_add,
    validate_kernel,
)
from .neighborlist import NeighborList
from .integrators import VelocityVerlet, LangevinBAOAB, BrownianDynamics
from .trajectory import Frame, Trajectory, ObservableRecorder
from .engine import Simulation
from .batch import ReplicaBatch, stack_simulations
from .checkpoint import capture, restore, checkpoint_size_bytes

__all__ = [
    "ParticleSystem",
    "Topology",
    "TopologyBuilder",
    "Force",
    "HarmonicBondForce",
    "FENEBondForce",
    "HarmonicAngleForce",
    "DihedralForce",
    "measure_dihedrals",
    "LennardJonesForce",
    "WCAForce",
    "DebyeHuckelForce",
    "ExternalFieldForce",
    "HarmonicRestraintForce",
    "FlatBottomRestraintForce",
    "ConstantForce",
    "SteeringForce",
    "KERNELS",
    "validate_kernel",
    "scatter_add",
    "accumulate_pair_forces",
    "NeighborList",
    "ReplicaBatch",
    "stack_simulations",
    "VelocityVerlet",
    "LangevinBAOAB",
    "BrownianDynamics",
    "Frame",
    "Trajectory",
    "ObservableRecorder",
    "Simulation",
    "capture",
    "restore",
    "checkpoint_size_bytes",
]
