"""The time integrator of the CG MD engine.

:class:`LangevinBAOAB` — the BAOAB splitting of Langevin dynamics
(Leimkuhler & Matthews) — is the one integrator: the NVT thermostat of the
implicit-solvent pore system.  At ``friction=0`` its O step is the identity
(``c1 = 1``, ``c2 = 0``) and the scheme is velocity Verlet with the drift
split in two halves, which is how the force terms' energy conservation is
checked.

The integrator mutates the state arrays in place and is vectorized over
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

__all__ = ["LangevinBAOAB"]

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
        # Per-particle factors, bound to the masses and temperature they
        # were built from (the temperature is steerable).
        self._bound: tuple = (None, None, None, None)

    def _factors(self, masses: np.ndarray) -> tuple:
        """``(1/m, c2 sigma_v)`` as ``(N, 1)`` columns for ``masses``."""
        bound_masses, bound_t, inv_m, noise_scale = self._bound
        if masses is not bound_masses or self.temperature != bound_t:
            inv_m = 1.0 / masses[:, None]
            sigma_v = np.sqrt(KB * self.temperature / masses)[:, None]
            noise_scale = self._c2 * sigma_v
            self._bound = (masses, self.temperature, inv_m, noise_scale)
        return inv_m, noise_scale

    def step(
        self,
        system: State,
        compute_forces: ForceCallback,
        forces: np.ndarray,
    ) -> Energy:
        dt = self.dt
        inv_m, noise_scale = self._factors(system.kinetic_masses)
        v, x = system.velocities, system.positions
        # B (half kick)
        v += 0.5 * dt * forces * inv_m
        # A (half drift)
        x += 0.5 * dt * v
        # O (Ornstein-Uhlenbeck exact update)
        v *= self._c1
        v += noise_scale * _thermal_noise(system, self.rng, v.shape)
        # A (half drift)
        x += 0.5 * dt * v
        # B (half kick) with fresh forces
        forces[:] = 0.0
        energy = compute_forces(x, forces)
        v += 0.5 * dt * forces * inv_m
        return energy
