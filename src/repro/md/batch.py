"""Replica-batched MD execution: R independent systems as one (R, N, 3) stack.

The work-ensemble workloads of the Fig. 4 study run many *independent*
replicas of the same system — identical topology and force parameters,
different thermal noise.  Stepping them one at a time repeats the whole
Python interpreter overhead of the MD loop R times; stacking their state
along a leading replica axis turns every force/integrator update into one
NumPy call over ``(R, N, 3)`` arrays.

Bit-identity contract
---------------------
A :class:`BatchedSimulation` built from R :class:`~repro.md.engine.Simulation`
instances produces trajectories bit-identical to stepping those simulations
individually, because

* every integrator update is an elementwise broadcast over the replica axis
  (:meth:`step_batched` on the integrators);
* per-replica noise is drawn from each replica's own generator (the same
  ``stream_for``-derived stream per-replica execution would use) into a
  contiguous row of the stacked noise buffer — NumPy fills contiguous
  ``out=`` views with the identical variates as a fresh allocation;
* force terms either implement ``compute_batched`` with per-replica
  bit-identical math (see the individual terms), or fall back to their
  scalar ``compute`` applied per replica (the documented fallback for
  arbitrary user force terms).

Because replicas are independent, the replica axis is an execution layout
only; nothing in the physics couples rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError

__all__ = ["ReplicaBatch", "BatchedSimulation"]

BatchReporter = Callable[["BatchedSimulation"], None]


@dataclass
class ReplicaBatch:
    """Stacked mutable state of R independent replicas.

    ``positions`` and ``velocities`` are ``(R, N, 3)`` C-contiguous arrays
    (the replica axis leads so each replica's state is one contiguous
    block); ``kinetic_masses`` is the shared ``(N,)`` mass vector (replicas
    are copies of the same system) and ``rngs`` holds one generator per
    replica for the stochastic integrators.
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


class BatchedSimulation:
    """The replica-batched counterpart of :class:`~repro.md.engine.Simulation`.

    Drives R replicas per step through single stacked NumPy operations.
    Force terms are *shared* (replicas have identical parameters by
    construction — see :meth:`from_simulations`); only the state arrays
    carry the replica axis.

    Force dispatch: terms implementing ``compute_batched(positions, out)``
    (all built-in bonded/nonbonded/external/SMD terms) evaluate the whole
    stack at once; any other term falls back to per-replica ``compute``
    calls — slower, but numerically identical, so arbitrary force terms
    keep working in a stack.
    """

    def __init__(
        self,
        batch: ReplicaBatch,
        forces: Sequence,
        integrator,
        validate_every: int = 1000,
    ) -> None:
        if not forces:
            raise ConfigurationError("a simulation needs at least one force term")
        if not hasattr(integrator, "step_batched"):
            raise ConfigurationError(
                f"integrator {type(integrator).__name__} has no step_batched; "
                "batched execution needs a replica-aware integrator"
            )
        self.batch = batch
        self.forces = list(forces)
        self.integrator = integrator
        self.validate_every = int(validate_every)
        self.step_count = 0
        self.time = 0.0
        self.potential_energies = np.zeros(batch.n_replicas, dtype=np.float64)
        self.reporters: List[BatchReporter] = []
        self._force_buffer = np.zeros_like(batch.positions)
        self._forces_current = False

    @classmethod
    def from_simulations(cls, sims: Sequence) -> "BatchedSimulation":
        """Stack R single-replica simulations into one batched engine.

        All simulations must share particle count, force stack and
        integrator settings (the work-ensemble builders construct them that
        way); force terms and the integrator are taken from the first.
        Stochastic integrators must carry per-replica generators (each
        ``sim.integrator.rng``) — those streams keep driving their replica,
        which is what makes the batch bit-identical to per-replica runs.
        """
        if not sims:
            raise ConfigurationError("need at least one simulation to batch")
        n = sims[0].system.n
        for sim in sims:
            if sim.system.n != n:
                raise ConfigurationError("all replicas must have the same size")
        positions = np.stack([sim.system.positions for sim in sims])
        velocities = np.stack([sim.system.velocities for sim in sims])
        rngs = [getattr(sim.integrator, "rng", None) for sim in sims]
        batch = ReplicaBatch(
            positions=positions,
            velocities=velocities,
            kinetic_masses=sims[0].system.kinetic_masses,
            rngs=[] if any(r is None for r in rngs) else rngs,
        )
        batched = cls(
            batch,
            list(sims[0].forces),
            sims[0].integrator,
            validate_every=sims[0].validate_every,
        )
        batched.time = sims[0].time
        batched.step_count = sims[0].step_count
        batched.invalidate_caches()
        return batched

    # -- setup ---------------------------------------------------------------

    def add_reporter(self, reporter: BatchReporter) -> None:
        """Register a post-step callback (called with this simulation)."""
        self.reporters.append(reporter)

    # -- force evaluation ----------------------------------------------------

    def compute_forces(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Sum all force terms into ``out`` (zeroed by the caller);
        returns the ``(R,)`` per-replica potential energies."""
        energies = np.zeros(positions.shape[0], dtype=np.float64)
        for force in self.forces:
            compute_batched = getattr(force, "compute_batched", None)
            if compute_batched is not None:
                energies += compute_batched(positions, out)
            else:
                # Fallback: arbitrary force terms run per replica — same
                # math, just without the stacked evaluation.
                for r in range(positions.shape[0]):
                    energies[r] += force.compute(positions[r], out[r])
        return energies

    def _ensure_forces(self) -> None:
        if not self._forces_current:
            self._force_buffer[:] = 0.0
            self.potential_energies = self.compute_forces(
                self.batch.positions, self._force_buffer
            )
            self._forces_current = True

    def invalidate_caches(self) -> None:
        """Invalidate cached forces and neighbor lists (including each
        replica's clone) after a discontinuous state change."""
        self._forces_current = False
        for force in self.forces:
            nl = getattr(force, "neighbor_list", None)
            if nl is not None:
                nl.invalidate()
            invalidate_batched = getattr(force, "invalidate_batched", None)
            if invalidate_batched is not None:
                invalidate_batched()

    # -- time evolution -------------------------------------------------------

    def step(self, n_steps: int = 1) -> None:
        """Advance all replicas by ``n_steps`` integrator steps."""
        if n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
        self._ensure_forces()
        for _ in range(n_steps):
            self.potential_energies = self.integrator.step_batched(
                self.batch, self.compute_forces, self._force_buffer
            )
            self.step_count += 1
            self.time += self.integrator.dt
            if self.validate_every and self.step_count % self.validate_every == 0:
                self.batch.validate()
            for reporter in self.reporters:
                reporter(self)

    def run_until(self, time_ns: float) -> None:
        """Step until simulation time reaches ``time_ns`` (same step-count
        formula as the single-replica engine, so clocks stay aligned)."""
        if time_ns < self.time:
            raise ConfigurationError("cannot run backwards in time")
        n = int(np.ceil((time_ns - self.time) / self.integrator.dt - 1e-12))
        self.step(max(n, 0))
