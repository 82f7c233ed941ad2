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
stack row is bit-identical to the solo pull of that replica: trap centres,
stretch, energy, the force on the pulled atoms and the work update are
elementwise expressions over the ``(R,)`` traps, and the projected COM
keeps its two-stage matvec replica by replica (``weights @ positions``
then ``com @ axis`` — one batched ``weights @ P[:, idx]`` over the stack
associates the reduction differently).
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
        solo = isinstance(protocol, PullingProtocol)
        self.protocols: List[PullingProtocol] = (
            [protocol] if solo else list(protocol))
        if not self.protocols:
            raise ConfigurationError("need at least one per-replica protocol")
        self.protocol = self.protocols[0]
        for p in self.protocols:
            if (p.kappa_internal != self.protocol.kappa_internal
                    or p.velocity != self.protocol.velocity
                    or p.duration_ns != self.protocol.duration_ns
                    or p.direction != self.protocol.direction):
                raise ConfigurationError(
                    "stacked SMD replicas must share kappa, velocity, "
                    "duration and direction (only the start coordinate "
                    "may differ)"
                )
        self._indices = np.asarray(indices, dtype=np.intp)
        if self._indices.size == 0:
            raise ConfigurationError("SMD needs at least one pulled atom")
        # A set, not np.unique, whose first call imports numpy.ma (+1 MB).
        if len(set(self._indices.tolist())) != self._indices.size:
            raise ConfigurationError("SMD pulled atoms must be distinct")
        m = np.asarray(masses, dtype=np.float64)[self._indices]
        self._weights = m / m.sum()
        a = np.asarray(axis, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(a)
        if norm == 0.0:
            raise ConfigurationError("pull axis must be non-zero")
        self._axis = a / norm
        self._time_ns = 0.0
        self.kappa = self.protocol.kappa_internal
        origins = [p.origin_z for p in self.protocols]
        starts = [p.start_z for p in self.protocols]
        # Where each trap stands at pull time 0, and where each pull window
        # is anchored: floats for one protocol, (R,) arrays for a stack.
        self._origins: PerReplica = origins[0] if solo else np.array(origins)
        self.start_z: PerReplica = starts[0] if solo else np.array(starts)

    # -- trap schedule --------------------------------------------------------

    def set_time(self, t_ns: float) -> None:
        """Set the pull clock (0 = pull start)."""
        if t_ns < 0.0:
            raise ConfigurationError("pull time cannot be negative")
        self._time_ns = float(t_ns)

    @property
    def trap_position(self) -> PerReplica:
        """Trap centre at the current pull time (one per replica): the
        expression of :meth:`PullingProtocol.trap_position`, elementwise."""
        t = min(max(self._time_ns, 0.0), self.protocol.duration_ns)
        return self._origins + self.protocol.signed_velocity * t

    # -- coordinate -----------------------------------------------------------

    def coordinate(self, positions: np.ndarray) -> PerReplica:
        """Projected COM coordinate ``axis . COM`` of the SMD atoms (of
        every replica, for a stack)."""
        if positions.ndim == 3:
            return np.array([self._weights @ x[self._indices] @ self._axis
                             for x in positions])
        return float(self._weights @ positions[self._indices] @ self._axis)

    # -- Force interface --------------------------------------------------------

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> PerReplica:
        centre = self.trap_position
        if np.shape(centre) != positions.shape[:-2]:
            raise ValueError(
                f"{np.size(centre)} trap(s) for replica shape "
                f"{positions.shape[:-2]}: a stack needs one trap per replica")
        q = self.coordinate(positions)
        stretch = centre - q
        # The force on the coordinate, spread over the pulled atoms by mass
        # fraction (the gradient of the COM).  The atoms are distinct, so
        # a plain indexed add does what np.add.at would.
        along = np.multiply.outer(self.kappa * stretch, self._weights)
        forces[..., self._indices, :] += along[..., None] * self._axis
        return 0.5 * self.kappa * (stretch * stretch)


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
