"""The MD engine: glues system + force terms + integrator + reporters.

This is the stand-in for NAMD in the SPICE architecture.  The engine exposes
the hooks the rest of the reproduction relies on:

* *reporters* — callables invoked after every step (observables, SMD work
  integration);
* *steering attachment* — a :class:`repro.steering.library.SteeringClient`
  can be attached; the engine polls it at a configurable stride, exactly how
  the paper's NAMD is "interfaced with the RealityGrid steering library
  through the client side API" without refactoring the MD loop;
* *checkpoint / clone* — capture/restore/branch, backing the RealityGrid
  checkpoint-tree features.

One engine drives one system or many: ``system`` is a
:class:`~repro.md.system.ParticleSystem` (``(N, 3)`` arrays, float
energies) or a :class:`~repro.md.batch.ReplicaBatch` — R independent
replicas of one system stacked along a leading axis (``(R, N, 3)`` arrays,
``(R,)`` energies) — through the same force loop, integrator step and
reporters; see :mod:`repro.md.batch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from . import checkpoint as ckpt
from .kernels import Energy, per_replica
from .system import ParticleSystem

if TYPE_CHECKING:
    from .batch import ReplicaBatch

__all__ = ["Simulation"]

Reporter = Callable[["Simulation"], None]


class Simulation:
    """A single MD simulation instance.

    Parameters
    ----------
    system:
        Particle state; mutated in place as the simulation advances.  A
        :class:`~repro.md.batch.ReplicaBatch` makes every step advance all
        its replicas at once; steering, ``total_energy`` and checkpoint/clone
        are single-system features.
    forces:
        Sequence of force terms implementing
        :class:`repro.md.forces.Force`.  In a stack, terms marked
        ``stackable`` evaluate all replicas per call; any other term runs
        once per replica — slower, numerically identical.
    integrator:
        One of the integrators from :mod:`repro.md.integrators`.
    validate_every:
        Steps between non-finite-state checks (0 disables).
    """

    def __init__(
        self,
        system: Union[ParticleSystem, ReplicaBatch],
        forces: Sequence,
        integrator,
        validate_every: int = 1000,
    ) -> None:
        if not forces:
            raise ConfigurationError("a simulation needs at least one force term")
        self.system = system
        self.forces = list(forces)
        self.integrator = integrator
        self.validate_every = int(validate_every)
        self.step_count = 0
        self.time = 0.0
        self.potential_energy: Energy = 0.0
        self.reporters: List[Reporter] = []
        self._force_buffer = np.zeros_like(system.positions)
        self._forces_current = False
        # Steering attachment (optional; set via attach_steering).
        self._steering_client = None
        self._steering_stride = 1
        self.paused = False
        self.stopped = False

    # -- setup ---------------------------------------------------------------

    def add_reporter(self, reporter: Reporter) -> None:
        """Register a post-step callback (called with this simulation)."""
        self.reporters.append(reporter)

    def attach_steering(self, client, stride: int = 10) -> None:
        """Attach a steering client polled every ``stride`` steps.

        The client must expose ``poll(simulation)`` (process pending control
        messages) and ``emit_sample(simulation)`` (publish monitored data);
        see :class:`repro.steering.library.SteeringClient`.
        """
        if stride <= 0:
            raise ConfigurationError(f"steering stride must be positive, got {stride}")
        self._steering_client = client
        self._steering_stride = int(stride)

    # -- force evaluation ----------------------------------------------------

    def compute_forces(self, positions: np.ndarray, out: np.ndarray) -> Energy:
        """Sum all force terms into ``out`` (zeroed by the caller);
        returns the total potential energy (``(R,)`` for a stack)."""
        energy: Energy = 0.0
        for force in self.forces:
            if getattr(force, "stackable", False):
                energy = energy + force.compute(positions, out)
            else:
                energy = energy + per_replica(force.compute, positions, out)
        return energy

    def _ensure_forces(self) -> None:
        """Populate the force buffer for the current positions if stale."""
        if not self._forces_current:
            self._force_buffer[:] = 0.0
            self.potential_energy = self.compute_forces(
                self.system.positions, self._force_buffer
            )
            self._forces_current = True

    def invalidate_caches(self) -> None:
        """Invalidate cached forces and neighbor lists (each replica's
        clone included) after a discontinuous state change (checkpoint
        restore, direct position edits)."""
        self._forces_current = False
        for force in self.forces:
            nl = getattr(force, "neighbor_list", None)
            if nl is not None:
                nl.invalidate()

    # -- time evolution --------------------------------------------------------

    def step(self, n_steps: int = 1) -> None:
        """Advance ``n_steps`` integrator steps (respecting pause/stop)."""
        if n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
        self._ensure_forces()
        for _ in range(n_steps):
            if self.stopped:
                break
            if self._steering_client is not None and (
                self.step_count % self._steering_stride == 0
            ):
                self._steering_client.poll(self)
                if self.stopped:
                    break
                self._steering_client.emit_sample(self)
            if self.paused:
                # A paused simulation burns no physical time; steering can
                # resume it on a later poll.  Callers driving paused
                # simulations should poll via steering, not step().
                continue
            self.potential_energy = self.integrator.step(
                self.system, self.compute_forces, self._force_buffer
            )
            self.step_count += 1
            self.time += self.integrator.dt
            if self.validate_every and self.step_count % self.validate_every == 0:
                self.system.validate()
            for reporter in self.reporters:
                reporter(self)

    def run_until(self, time_ns: float) -> None:
        """Step until simulation time reaches ``time_ns``."""
        if time_ns < self.time:
            raise ConfigurationError("cannot run backwards in time")
        n = int(np.ceil((time_ns - self.time) / self.integrator.dt - 1e-12))
        self.step(max(n, 0))

    # -- energies --------------------------------------------------------------

    def total_energy(self) -> float:
        """Potential + kinetic energy (kcal/mol)."""
        self._ensure_forces()
        return self.potential_energy + self.system.kinetic_energy()

    # -- checkpoint / clone ------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the full mutable state."""
        return ckpt.capture(self)

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`checkpoint`."""
        ckpt.restore(self, checkpoint)

    def clone(self) -> "Simulation":
        """Create an independent simulation branched from the current state.

        Force terms are shared *definitions* but operate on the cloned
        system's arrays; neighbor lists are stateful, so force terms holding
        one are rebuilt lazily via invalidation.  Reporters and steering
        attachments are deliberately not copied — a clone starts unobserved,
        matching the RealityGrid clone-for-V&V use case.
        """
        new_sys = self.system.copy()
        sim = Simulation(new_sys, self.forces, self.integrator,
                         validate_every=self.validate_every)
        sim.step_count = self.step_count
        sim.time = self.time
        sim.invalidate_caches()
        return sim
