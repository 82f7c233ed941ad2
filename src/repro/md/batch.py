"""Replica stacking: R independent systems as one (R, N, 3) state.

The work-ensemble workloads of the Fig. 4 study run many *independent*
replicas of the same system — identical topology and force parameters,
different thermal noise.  Stepping them one at a time repeats the whole
Python interpreter overhead of the MD loop R times; stacking their state
along a leading replica axis turns every force/integrator update into one
NumPy call over ``(R, N, 3)`` arrays.

There is no second engine for this.  A :class:`ReplicaBatch` is a state the
one :class:`~repro.md.engine.Simulation` drives like a
:class:`~repro.md.system.ParticleSystem`: every force term and integrator
keeps a single vectorised body written over an optional leading replica
axis, so the lines a stack row runs *are* the lines a solo run executes.

Bit-identity contract
---------------------
A simulation built by :func:`stack_simulations` from R solo simulations
produces trajectories and per-replica energies bit-identical to stepping
those simulations individually.  The source is shared; what still differs
is array shape, and that is where the contract is earned:

* every integrator update is an elementwise broadcast over the replica
  axis, and per-replica noise is drawn from each replica's own generator
  (the same ``stream_for``-derived stream the solo run would use) into a
  contiguous row of the stacked noise buffer — NumPy fills contiguous
  ``out=`` views with the identical variates as a fresh allocation;
* force expressions are elementwise and the scatter flattens the replica
  axis into the particle axis, so each replica's slots accumulate in the
  solo bincount order (:func:`~repro.md.kernels.scatter_add`);
* energy *reductions* are per replica, on memory laid out like the solo
  operand: bonded terms reduce each C-contiguous row with the solo
  ``np.dot`` (a strided row sends BLAS down another summation order —
  :func:`~repro.md.kernels.weighted_sums`), nonbonded terms take a plain
  ``np.sum`` over each replica's own contiguous run of pairs, never one
  sum over the stack;
* the pore and membrane fields are elementwise per bead, and each
  replica's field energy is the sum over its own row;
* each replica keeps its own neighbour-list clone, reference positions
  and rebuild schedule; only the skin test is made once for the stack
  (:meth:`~repro.md.neighborlist.NeighborList.stacked_pairs`);
* terms that only understand ``(N, 3)`` (no ``stackable`` mark:
  restraints, dihedrals, a user's own) and the ``kernel="reference"``
  loops run once per replica (:func:`~repro.md.kernels.per_replica`).

Because replicas are independent, the replica axis is an execution layout
only; nothing in the physics couples rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .engine import Simulation

__all__ = ["ReplicaBatch", "stack_simulations"]


@dataclass
class ReplicaBatch:
    """Stacked mutable state of R independent replicas.

    ``positions`` and ``velocities`` are ``(R, N, 3)`` C-contiguous arrays
    (the replica axis leads so each replica's state is one contiguous
    block); ``kinetic_masses`` is the shared ``(N,)`` mass vector (replicas
    are copies of the same system) and ``rngs`` holds one generator per
    replica for the stochastic integrators (with none, a stochastic
    integrator draws the whole stack from its own generator).
    """

    positions: np.ndarray
    velocities: np.ndarray
    kinetic_masses: np.ndarray
    rngs: List = field(default_factory=list)

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[2] != 3:
            raise ConfigurationError(
                f"batched positions must be (R, N, 3), got {self.positions.shape}"
            )
        if self.velocities.shape != self.positions.shape:
            raise ConfigurationError("velocities must match positions shape")
        if self.kinetic_masses.shape != (self.positions.shape[1],):
            raise ConfigurationError("kinetic_masses must be (N,)")
        if self.rngs and len(self.rngs) != self.positions.shape[0]:
            raise ConfigurationError("need one rng per replica (or none)")

    @property
    def n_replicas(self) -> int:
        return self.positions.shape[0]

    @property
    def n(self) -> int:
        """Particles per replica."""
        return self.positions.shape[1]

    def validate(self) -> None:
        """Raise :class:`SimulationError` on non-finite state (any replica)."""
        if not np.all(np.isfinite(self.positions)):
            raise SimulationError("non-finite particle positions (batched)")
        if not np.all(np.isfinite(self.velocities)):
            raise SimulationError("non-finite particle velocities (batched)")


def stack_simulations(sims: Sequence[Simulation]) -> Simulation:
    """Stack R solo simulations into one simulation of a :class:`ReplicaBatch`.

    All simulations must share particle count, force stack and integrator
    settings (the work-ensemble builders construct them that way); force
    terms, the integrator and the clock are taken from the first.
    Stochastic integrators must carry per-replica generators (each
    ``sim.integrator.rng``) — those streams keep driving their replica,
    which is what makes the stack bit-identical to per-replica runs.
    """
    if not sims:
        raise ConfigurationError("need at least one simulation to batch")
    first = sims[0]
    if any(sim.system.n != first.system.n for sim in sims):
        raise ConfigurationError("all replicas must have the same size")
    rngs = [getattr(sim.integrator, "rng", None) for sim in sims]
    batch = ReplicaBatch(
        positions=np.stack([sim.system.positions for sim in sims]),
        velocities=np.stack([sim.system.velocities for sim in sims]),
        kinetic_masses=first.system.kinetic_masses,
        rngs=[] if any(r is None for r in rngs) else rngs,
    )
    stacked = Simulation(batch, first.forces, first.integrator,
                         validate_every=first.validate_every)
    stacked.time = first.time
    stacked.step_count = first.step_count
    stacked.invalidate_caches()
    return stacked
