"""Time integrators for the CG MD engine.

Three integrators cover the regimes the reproduction needs:

* :class:`VelocityVerlet` — symplectic NVE; used for energy-conservation
  validation of every force term.
* :class:`LangevinBAOAB` — the BAOAB splitting of Langevin dynamics
  (Leimkuhler & Matthews), the workhorse NVT integrator for the implicit
  solvent pore system.
* :class:`BrownianDynamics` — overdamped (inertia-free) dynamics; the
  reduced 1-D translocation model (Fig. 4 parameter study) runs in this
  regime, but the 3-D variant is also available for strongly damped CG runs.

All integrators mutate the state arrays in place and are vectorized over
particles — and over an optional leading replica axis: ``step`` takes a
:class:`~repro.md.system.ParticleSystem` (``(N, 3)`` arrays) or a
:class:`~repro.md.batch.ReplicaBatch` (``(R, N, 3)``), every update being an
elementwise broadcast of the same ``(N, 1)`` per-particle factors, so a
stack row is bit-identical to stepping that replica alone.  Thermal noise
is filled row by row from the state's generators (:func:`_thermal_noise`).
The force callback returns the potential energy (a float, or ``(R,)`` per
replica) so engines can track totals without a second evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, as_generator
from ..units import KB, ROOM_TEMPERATURE
from .kernels import Energy
from .system import ParticleSystem

if TYPE_CHECKING:
    from .batch import ReplicaBatch

__all__ = ["VelocityVerlet", "LangevinBAOAB", "BrownianDynamics"]

# The state an integrator advances: one system or a stack of replicas.
State = Union[ParticleSystem, "ReplicaBatch"]

# Force callback signature: fills the force array (shaped like the
# positions), returns the energy (one per replica for a stack).
ForceCallback = Callable[[np.ndarray, np.ndarray], Energy]


def _thermal_noise(state: State, rng: np.random.Generator,
                   shape: tuple) -> np.ndarray:
    """Standard-normal noise of ``shape``, filled row by row.

    A stack carries one generator per replica (``state.rngs``) and row
    ``r`` is drawn from the ``r``-th; a solo system is the one-row case,
    drawn from the integrator's own ``rng``.  A contiguous ``out=`` fill
    yields the variates of a fresh allocation of that row, so a stack row
    consumes its stream exactly as the solo run of that replica does.
    """
    rngs = getattr(state, "rngs", None) or [rng]
    noise = np.empty(shape, dtype=np.float64)
    for row, row_rng in zip(noise.reshape(len(rngs), -1), rngs):
        row_rng.standard_normal(out=row)
    return noise


class VelocityVerlet:
    """Symplectic velocity-Verlet (microcanonical).

    Parameters
    ----------
    dt:
        Timestep in ns (use :func:`repro.units.timestep_fs` for fs input).
    """

    def __init__(self, dt: float) -> None:
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self.dt = float(dt)

    def step(
        self,
        system: State,
        compute_forces: ForceCallback,
        forces: np.ndarray,
    ) -> Energy:
        """Advance one step; ``forces`` must hold forces at the current
        positions on entry and holds forces at the new positions on exit.
        Returns the potential energy at the new positions.  The ``(N, 1)``
        inverse-mass factor broadcasts over a leading replica axis."""
        dt = self.dt
        inv_m = 1.0 / system.kinetic_masses[:, None]
        v, x = system.velocities, system.positions
        v += 0.5 * dt * forces * inv_m
        x += dt * v
        forces[:] = 0.0
        energy = compute_forces(x, forces)
        v += 0.5 * dt * forces * inv_m
        return energy


class LangevinBAOAB:
    """BAOAB splitting of Langevin dynamics (kB T thermostat).

    Parameters
    ----------
    dt:
        Timestep in ns.
    friction:
        Collision rate ``gamma`` in 1/ns; higher values couple the system
        more tightly to the heat bath (implicit solvent drag).
    temperature:
        Bath temperature in K.
    seed:
        RNG for the O-step noise.
    """

    def __init__(
        self,
        dt: float,
        friction: float,
        temperature: float = ROOM_TEMPERATURE,
        seed: SeedLike = None,
    ) -> None:
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if friction < 0.0:
            raise ConfigurationError(f"friction must be >= 0, got {friction}")
        if temperature <= 0.0:
            raise ConfigurationError(f"temperature must be positive, got {temperature}")
        self.dt = float(dt)
        self.friction = float(friction)
        self.temperature = float(temperature)
        self.rng = as_generator(seed)
        self._c1 = float(np.exp(-self.friction * self.dt))
        self._c2 = float(np.sqrt(1.0 - self._c1**2))

    def step(
        self,
        system: State,
        compute_forces: ForceCallback,
        forces: np.ndarray,
    ) -> Energy:
        dt = self.dt
        inv_m = 1.0 / system.kinetic_masses[:, None]
        sigma_v = np.sqrt(KB * self.temperature / system.kinetic_masses)[:, None]
        v, x = system.velocities, system.positions
        # B (half kick)
        v += 0.5 * dt * forces * inv_m
        # A (half drift)
        x += 0.5 * dt * v
        # O (Ornstein-Uhlenbeck exact update)
        v *= self._c1
        v += self._c2 * sigma_v * _thermal_noise(system, self.rng, v.shape)
        # A (half drift)
        x += 0.5 * dt * v
        # B (half kick) with fresh forces
        forces[:] = 0.0
        energy = compute_forces(x, forces)
        v += 0.5 * dt * forces * inv_m
        return energy


class BrownianDynamics:
    """Overdamped (Ermak-McCammon) dynamics.

    ``dx = F / zeta * dt + sqrt(2 kB T dt / zeta) * xi``

    Parameters
    ----------
    dt:
        Timestep in ns.
    friction_coefficient:
        Translational drag ``zeta`` in kcal ns / (mol A^2); either a scalar
        or a per-particle array.  The diffusion constant is ``kB T / zeta``.
    temperature:
        Bath temperature in K.
    """

    def __init__(
        self,
        dt: float,
        friction_coefficient: float | np.ndarray,
        temperature: float = ROOM_TEMPERATURE,
        seed: SeedLike = None,
    ) -> None:
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        zeta = np.asarray(friction_coefficient, dtype=np.float64)
        if np.any(zeta <= 0.0):
            raise ConfigurationError("friction coefficient must be positive")
        if temperature <= 0.0:
            raise ConfigurationError(f"temperature must be positive, got {temperature}")
        self.dt = float(dt)
        self.zeta = zeta
        self.temperature = float(temperature)
        self.rng = as_generator(seed)

    def mobility(self) -> np.ndarray:
        """``1/zeta`` broadcastable against an ``(n, 3)`` force array."""
        z = self.zeta
        return (1.0 / z)[:, None] if z.ndim == 1 else np.asarray(1.0 / z)

    def step(
        self,
        system: State,
        compute_forces: ForceCallback,
        forces: np.ndarray,
    ) -> Energy:
        dt = self.dt
        mob = self.mobility()
        noise_scale = np.sqrt(2.0 * KB * self.temperature * dt * mob)
        x = system.positions
        x += forces * mob * dt
        x += noise_scale * _thermal_noise(system, self.rng, x.shape)
        forces[:] = 0.0
        return compute_forces(x, forces)
