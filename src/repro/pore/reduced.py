"""Reduced one-dimensional translocation model.

The paper's Fig. 4 parameter study needs hundreds of pulling trajectories
per (kappa, v) cell.  Following the standard SMD-JE analysis (Park &
Schulten 2003, the paper's Ref. [10]), the translocation coordinate — the
axial centre of mass of the SMD atoms — is well described by overdamped
diffusion on the pore's effective free-energy surface.  This module is that
reduced model, with the crucial property that its **exact PMF is known**
(it *is* the input potential), so systematic errors of the SMD-JE estimate
can be measured exactly.

The dynamics is Euler-Maruyama overdamped Langevin, vectorized over an
ensemble of independent replicas: one NumPy op per step for the whole
ensemble (hpc-parallel guide: vectorize over the batch dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, as_generator
from ..units import KB, ROOM_TEMPERATURE, pn_per_angstrom
from .landscape import AxialLandscape

__all__ = ["Potential1D", "ReducedTranslocationModel", "default_reduced_potential"]


class Potential1D(Protocol):
    """1-D potential with analytic value and derivative (kcal/mol, A).

    Leading-axis contract: ``derivative`` returns an array of its
    argument's shape, and each row along the leading axis is evaluated as
    it would be alone — ``derivative(z[:, None])[i]`` has the bits of
    ``derivative(z[i:i + 1])``.
    :class:`~repro.pore.landscape.AxialLandscape` (a batched ``matmul``:
    one one-row product per row) and
    :class:`~repro.pore.tabulated.TabulatedPotential1D` (``np.interp``,
    elementwise) both honour it.

    ``stacked_derivative(total, column)`` is the pulling engine's
    (:mod:`repro.smd.batched`) only way in: it binds work buffers for a
    stack of ``total`` coordinates and returns ``evaluate``, which takes a
    prefix ``z[:n]`` of that stack and returns dU/dz as an ``(n,)`` array
    it owns (valid until its next call) — bit for bit
    ``derivative(z[:n])``, or ``derivative(z[:n, None])[:, 0]`` when
    ``column`` is set, which is how the engine steps a stack of
    one-replica pulls in one call.  The engine refuses an evaluator whose
    result comes back in another shape.
    """

    def value(self, z):
        ...

    def derivative(self, z):
        ...

    def stacked_derivative(
            self, total: int,
            column: bool) -> Callable[[np.ndarray], np.ndarray]:
        ...


def default_reduced_potential() -> AxialLandscape:
    """Effective chain-COM potential used for the Fig. 4 reproduction.

    Interpretation: the per-bead landscape integrated over the ~12-base
    chain, plus the electrophoretic driving force of the applied bias that
    makes translocation strongly downhill (the paper's PMFs drop by
    ~100-150 kcal/mol over the 10 A window).  Features a few A wide are
    retained so that soft springs (kappa = 10 pN/A, thermal width ~2 A)
    visibly smooth them — the Fig. 4a systematic error.
    """
    return AxialLandscape(
        terms=[
            (4.0, -2.0, 1.6),   # residual barrier entering the constriction
            (-3.0, 0.5, 1.3),   # binding pocket at the constriction
            (2.5, 3.0, 1.5),    # second barrier toward the barrel
        ],
        tilt=-10.0,
    )


@dataclass
class ReducedTranslocationModel:
    """Overdamped dynamics of the translocation coordinate.

    Parameters
    ----------
    potential:
        Effective PMF the coordinate diffuses on; this is, by construction,
        the exact reference for Jarzynski estimates.
    friction:
        Drag zeta in kcal ns/(mol A^2).  The default (0.004) makes pulling
        at v = 12.5 A/ns nearly reversible (drag work ~ 1 kT over 10 A) and
        pulling at v = 100 A/ns strongly irreversible (~7 kT of drag alone)
        — the regime the paper explores.
    temperature:
        Bath temperature (K).
    """

    potential: Potential1D
    friction: float = 0.004
    temperature: float = ROOM_TEMPERATURE

    def __post_init__(self) -> None:
        if self.friction <= 0.0:
            raise ConfigurationError("friction must be positive")
        if self.temperature <= 0.0:
            raise ConfigurationError("temperature must be positive")

    @property
    def kT(self) -> float:
        return KB * self.temperature

    @property
    def diffusion_constant(self) -> float:
        """``kB T / zeta`` in A^2/ns."""
        return self.kT / self.friction

    #: Fraction of the stiffest relaxation time ``zeta/kappa`` one
    #: timestep spans.
    TIMESTEP_SAFETY = 0.1
    #: Finite-difference nodes :meth:`max_curvature` samples.
    CURVATURE_NODES = 512

    def stable_timestep(self, kappa: float) -> float:
        """A timestep resolving the stiffest relaxation time ``zeta/kappa``.

        ``kappa`` is the total curvature scale (spring + potential), in
        kcal/mol/A^2.
        """
        if kappa <= 0.0:
            raise ConfigurationError("kappa must be positive")
        return self.TIMESTEP_SAFETY * self.friction / kappa

    def max_curvature(self, z_lo: float, z_hi: float) -> float:
        """Largest ``|U''(z)|`` over a range (finite differences).

        Used to include landscape stiffness, not just the trap spring, in
        the stable-timestep criterion — a soft spring over a sharp barrier
        is still a stiff problem.
        """
        if z_hi <= z_lo:
            raise ConfigurationError("need z_hi > z_lo")
        z = np.linspace(z_lo, z_hi, self.CURVATURE_NODES)
        du = np.asarray(self.potential.derivative(z), dtype=np.float64)
        return float(np.max(np.abs(np.gradient(du, z))))

    def fingerprint_data(self) -> dict:
        """Canonical parameter description for result-store fingerprints.

        Requires the potential to expose ``fingerprint_data()`` itself
        (as :class:`~repro.pore.landscape.AxialLandscape` does); an opaque
        potential cannot be content-addressed.
        """
        describe = getattr(self.potential, "fingerprint_data", None)
        if describe is None:
            from ..errors import StoreError

            raise StoreError(
                f"potential {type(self.potential).__name__} has no "
                "fingerprint_data(); the result store cannot address it"
            )
        return {
            "kind": "reduced-translocation",
            "potential": describe(),
            "friction": float(self.friction),
            "temperature": float(self.temperature),
        }

    # -- ensemble dynamics -----------------------------------------------------

    def step_ensemble(
        self,
        z: np.ndarray,
        dt: float,
        rng: np.random.Generator,
        spring_kappa: float = 0.0,
        spring_center: float | np.ndarray = 0.0,
    ) -> np.ndarray:
        """One Euler-Maruyama step for all replicas, in place.

        ``z`` is the ``(m,)`` replica coordinate array; the optional
        harmonic spring models the SMD pulling trap.
        """
        force = -np.asarray(self.potential.derivative(z), dtype=np.float64)
        if spring_kappa != 0.0:
            force = force + spring_kappa * (np.asarray(spring_center) - z)
        z += force * (dt / self.friction)
        noise = rng.standard_normal(z.shape)
        z += np.sqrt(2.0 * self.kT * dt / self.friction) * noise
        return z

    def equilibrate(
        self,
        n_replicas: int,
        spring_kappa: float,
        spring_center: float,
        dt: float,
        time_ns: float,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Equilibrate an ensemble in a static trap; returns ``(m,)`` positions.

        Models the per-sub-trajectory equilibration the SMD-JE protocol
        requires before each pull (the starting state must be an
        *equilibrium* ensemble for Jarzynski's equality to hold).
        """
        if n_replicas <= 0:
            raise ConfigurationError("n_replicas must be positive")
        if time_ns < 0.0:
            raise ConfigurationError("equilibration time cannot be negative")
        rng = as_generator(seed)
        # Start replicas at the trap centre with the trap's thermal spread.
        if spring_kappa > 0.0:
            spread = np.sqrt(self.kT / spring_kappa)
        else:
            spread = 1.0
        z = spring_center + spread * rng.standard_normal(n_replicas)
        n_steps = int(np.ceil(time_ns / dt)) if time_ns > 0 else 0
        for _ in range(n_steps):
            self.step_ensemble(z, dt, rng, spring_kappa, spring_center)
        return z

    def reference_pmf(self, z_grid: np.ndarray, zero_at_start: bool = True) -> np.ndarray:
        """Exact PMF on a grid (the input potential, optionally re-zeroed)."""
        pmf = np.asarray(self.potential.value(z_grid), dtype=np.float64).copy()
        if zero_at_start:
            pmf -= pmf[0]
        return pmf

    def trap_pmf(self, kappa_pn: float, lam: np.ndarray) -> np.ndarray:
        """``F_kappa(lam) = -kT ln int exp(-beta [U(z) + kappa (z-lam)^2/2]) dz``
        (kcal/mol): what Jarzynski estimates through a trap of ``kappa_pn``
        (pN/A) at ``lam`` — U only as kappa grows.  A 300 001-point
        trapezoid over z in [-150, 150] A, the exponent shifted per ``lam``
        (the tilt spans thousands of kcal/mol there: ``exp`` underflows)."""
        kappa = pn_per_angstrom(kappa_pn)
        z = np.linspace(-150.0, 150.0, 300_001)
        u = np.asarray(self.potential.value(z), dtype=np.float64)
        lam = np.asarray(lam, dtype=np.float64)
        out = np.empty(lam.shape)
        for i, center in np.ndenumerate(lam):
            exponent = -(u + 0.5 * kappa * (z - center) ** 2) / self.kT
            shift = exponent.max()
            out[i] = -self.kT * (
                shift + np.log(np.trapezoid(np.exp(exponent - shift), z)))
        return out
