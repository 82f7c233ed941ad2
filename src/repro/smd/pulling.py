"""Constant-velocity SMD force term for the 3-D engine.

The paper (Fig. 3) steers the ssDNA "along the direction of the vertical
axis of the pore by applying a force to the C3' atom": a fictitious pulling
atom moves at constant velocity and drags the selected SMD atoms through a
harmonic spring of stiffness kappa acting on their centre of mass along the
pull direction.

The force term plugs into :class:`repro.md.engine.Simulation` like any
other; a paired reporter (:class:`SMDWorkRecorder`) integrates the external
work so 3-D runs produce the same :class:`~repro.smd.work.WorkEnsemble`
record streams as the reduced model.

Both exist once.  Built from one protocol they serve a solo simulation
(floats); built from a sequence of protocols — one trap per replica, each
anchored at its own replica's start — they serve a replica stack
(:mod:`repro.md.batch`), per-replica values becoming ``(R,)`` arrays.  A
stack row is bit-identical to the solo pull of that replica: the trap is
applied replica by replica with the solo scalar arithmetic (the projected
COM in particular keeps its two-stage matvec, ``weights @ positions`` then
``com @ axis`` — a stacked einsum would associate the reduction
differently), and the work update is elementwise ``+ - *`` only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from .protocol import PullingProtocol

__all__ = ["SMDPullingForce", "SMDWorkRecorder"]

# A per-replica quantity: a float (solo) or an (R,) array (stack).
PerReplica = Union[float, np.ndarray]


class SMDPullingForce:
    """Moving harmonic trap on the COM of the SMD atoms along an axis.

    ``U = 0.5 kappa (lambda(t) - q)^2`` with ``q = axis . COM(smd atoms)``
    and ``lambda(t) = start + v t``.  The per-particle force distributes by
    mass fraction (the gradient of the COM coordinate).

    The trap time is advanced externally via :meth:`set_time` (the engine's
    work recorder does this each step), which keeps the force term a pure
    function of (positions, time) — required for checkpoint/restore replay.

    ``protocol`` is one :class:`PullingProtocol`, or a sequence holding one
    per replica of a stacked simulation: the traps share stiffness,
    velocity and duration and differ only in where they are anchored
    (``protocols[r]`` is typically ``protocol.with_start(q0_r)``).
    """

    stackable = True

    def __init__(
        self,
        protocol: Union[PullingProtocol, Sequence[PullingProtocol]],
        indices: np.ndarray,
        masses: np.ndarray,
        axis: np.ndarray = (0.0, 0.0, 1.0),
    ) -> None:
        self._solo = isinstance(protocol, PullingProtocol)
        self.protocols: List[PullingProtocol] = (
            [protocol] if self._solo else list(protocol))
        if not self.protocols:
            raise ConfigurationError("need at least one per-replica protocol")
        self.protocol = self.protocols[0]
        for p in self.protocols:
            if (p.kappa_internal != self.protocol.kappa_internal
                    or p.velocity != self.protocol.velocity
                    or p.duration_ns != self.protocol.duration_ns):
                raise ConfigurationError(
                    "stacked SMD replicas must share kappa, velocity and "
                    "duration (only the start coordinate may differ)"
                )
        self._indices = np.asarray(indices, dtype=np.intp)
        if self._indices.size == 0:
            raise ConfigurationError("SMD needs at least one pulled atom")
        m = np.asarray(masses, dtype=np.float64)[self._indices]
        self._weights = m / m.sum()
        a = np.asarray(axis, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(a)
        if norm == 0.0:
            raise ConfigurationError("pull axis must be non-zero")
        self._axis = a / norm
        self._time_ns = 0.0
        self.kappa = self.protocol.kappa_internal

    # -- trap schedule --------------------------------------------------------

    def set_time(self, t_ns: float) -> None:
        """Set the pull clock (0 = pull start)."""
        if t_ns < 0.0:
            raise ConfigurationError("pull time cannot be negative")
        self._time_ns = float(t_ns)

    def _per_protocol(self, values: List[float]) -> PerReplica:
        return values[0] if self._solo else np.array(values)

    @property
    def trap_position(self) -> PerReplica:
        """Trap centre at the current pull time (one per replica)."""
        return self._per_protocol(
            [p.trap_position(self._time_ns) for p in self.protocols])

    @property
    def start_z(self) -> PerReplica:
        """Where the pull window is anchored (one per replica)."""
        return self._per_protocol([p.start_z for p in self.protocols])

    # -- coordinate -----------------------------------------------------------

    def coordinate(self, positions: np.ndarray) -> PerReplica:
        """Projected COM coordinate ``axis . COM`` of the SMD atoms (of
        every replica, for a stack)."""
        if positions.ndim == 3:
            return np.array([self.coordinate(x) for x in positions])
        com = self._weights @ positions[self._indices]
        return float(com @ self._axis)

    # -- Force interface --------------------------------------------------------

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> PerReplica:
        if positions.ndim == 2:
            return self._pull(self.protocol, positions, forces)
        return np.array([
            self._pull(protocol, x, f) for protocol, x, f
            in zip(self.protocols, positions, forces, strict=True)])

    def _pull(self, protocol: PullingProtocol, positions: np.ndarray,
              forces: np.ndarray) -> float:
        """One trap on one ``(N, 3)`` system, in scalar arithmetic."""
        q = self.coordinate(positions)
        stretch = protocol.trap_position(self._time_ns) - q
        energy = 0.5 * self.kappa * stretch**2
        f_along = self.kappa * stretch  # force on the coordinate
        np.add.at(
            forces,
            self._indices,
            (f_along * self._weights)[:, None] * self._axis[None, :],
        )
        return float(energy)


class SMDWorkRecorder:
    """Reporter advancing the trap and integrating external work.

    Attach *after* creating the simulation::

        recorder = SMDWorkRecorder(smd_force)
        sim.add_reporter(recorder)

    Uses the same midpoint-in-lambda rule as the reduced-model runner, so
    3-D and 1-D work curves are directly comparable.  On a stacked
    simulation (``smd_force`` built from per-replica protocols) ``work``
    and every recorded value hold one entry per replica, and
    :meth:`arrays` returns replica-major 2-D series.
    """

    def __init__(self, smd_force: SMDPullingForce, record_stride: int = 1) -> None:
        if record_stride <= 0:
            raise ConfigurationError("record_stride must be positive")
        self.smd = smd_force
        self.record_stride = int(record_stride)
        self._last_lambda = smd_force.trap_position
        # +0.0 in the traps' shape: a float, or one total per replica.
        self.work: PerReplica = self._last_lambda - self._last_lambda
        self._t0: Optional[float] = None
        self.times: List[float] = []
        self.works: List[PerReplica] = []
        self.displacements: List[PerReplica] = []
        self.coordinates: List[PerReplica] = []
        self._call_count = 0

    def __call__(self, simulation) -> None:
        if self._t0 is None:
            # First call defines the pull start relative to the engine clock.
            self._t0 = simulation.time - simulation.integrator.dt
        t_pull = simulation.time - self._t0
        self.smd.set_time(t_pull)
        lam_new = self.smd.trap_position
        q = self.smd.coordinate(simulation.system.positions)
        dlam = lam_new - self._last_lambda
        if np.any(dlam != 0.0):
            # Not in place: the recorded values must not alias the total.
            self.work = self.work + self.smd.kappa * dlam * (
                0.5 * (self._last_lambda + lam_new) - q
            )
        self._last_lambda = lam_new
        self._call_count += 1
        if self._call_count % self.record_stride == 0:
            self.times.append(t_pull)
            self.works.append(self.work)
            self.displacements.append(lam_new - self.smd.start_z)
            self.coordinates.append(q)

    def arrays(self) -> dict:
        """Recorded series as NumPy arrays: 1-D, or ``(R, n_records)`` for
        a stack (``times`` is shared and stays 1-D)."""
        return {
            "times": np.asarray(self.times, dtype=np.float64),
            "works": np.asarray(self.works, dtype=np.float64).T,
            "displacements": np.asarray(self.displacements, dtype=np.float64).T,
            "coordinates": np.asarray(self.coordinates, dtype=np.float64).T,
        }
