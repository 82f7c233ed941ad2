"""Coarse-grained molecular dynamics engine (the NAMD stand-in).

Public surface:

* :class:`~repro.md.system.ParticleSystem` — particle state.
* :class:`~repro.md.topology.Topology` / ``TopologyBuilder`` — bonded terms.
* Force terms: FENE bonds, angles, LJ/WCA, Debye-Hueckel,
  external fields, restraints, steering forces.
* :class:`~repro.md.neighborlist.NeighborList` — the nonbonded terms'
  Verlet list over one direct ``O(n^2)`` pair search; boundaries are open.
* :class:`~repro.md.integrators.LangevinBAOAB` — the one integrator
  (velocity Verlet at ``friction=0``).
* :class:`~repro.md.engine.Simulation` — the engine with reporters,
  steering attachment and checkpoint/clone.  The one engine: it drives a
  :class:`ParticleSystem` or, built by :func:`~repro.md.batch.stack_simulations`,
  a :class:`~repro.md.batch.ReplicaBatch` of R stacked replicas through
  the same force terms and integrator (one vectorised body each, over an
  optional leading replica axis, plus a ``"reference"`` scalar oracle).
"""

from .system import ParticleSystem
from .topology import Topology, TopologyBuilder
from .forces import Force, FENEBondForce, HarmonicAngleForce
from .nonbonded import LennardJonesForce, WCAForce, DebyeHuckelForce
from .external import (
    ExternalFieldForce,
    HarmonicRestraintForce,
    SteeringForce,
)
from .kernels import (
    KERNELS,
    accumulate_pair_forces,
    scatter_add,
    validate_kernel,
)
from .neighborlist import NeighborList
from .integrators import LangevinBAOAB
from .engine import Simulation
from .batch import ReplicaBatch, stack_simulations
from .checkpoint import capture, restore

__all__ = [
    "ParticleSystem",
    "Topology",
    "TopologyBuilder",
    "Force",
    "FENEBondForce",
    "HarmonicAngleForce",
    "LennardJonesForce",
    "WCAForce",
    "DebyeHuckelForce",
    "ExternalFieldForce",
    "HarmonicRestraintForce",
    "SteeringForce",
    "KERNELS",
    "validate_kernel",
    "scatter_add",
    "accumulate_pair_forces",
    "NeighborList",
    "ReplicaBatch",
    "stack_simulations",
    "LangevinBAOAB",
    "Simulation",
    "capture",
    "restore",
]
