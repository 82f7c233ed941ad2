"""Thermodynamic integration (TI) on the translocation coordinate.

The paper's conclusion: "the grid computing infrastructure used here for
computing free energies by SMD-JE can be easily extended to compute free
energies using different approaches (e.g., thermodynamic integration)" —
citing the authors' own grid-based steered TI work (Fowler, Jha & Coveney
2005).  This module is that extension: the restrained-coordinate TI
estimator on the same reduced model, producing the same
:class:`~repro.core.pmf.PMFEstimate` objects so every downstream analysis
(error budgets, figure emitters, grid campaign sizing) works unchanged.

Method (stiff-restraint TI / "blue-moon"-style): at each station ``z_i``
along the axis, a stiff harmonic restraint holds the coordinate while the
ensemble samples the *mean restraint force* ``<kappa (z - z_i)> = -<dU/dz>``
at equilibrium; integrating the mean force over the stations gives the PMF.
Unlike SMD-JE the estimator has no irreversibility bias — its errors come
from finite sampling and the quadrature — which is exactly why it makes a
good cross-check baseline for the JE results (the TI-vs-JE benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_generator
from ..smd.ensemble import PAPER_CPU_HOURS_PER_NS
from ..units import pn_per_angstrom
from .pmf import PMFEstimate

__all__ = ["TIProtocol", "TIResult", "run_thermodynamic_integration"]


@dataclass(frozen=True)
class TIProtocol:
    """Stationing plan for a TI run.

    Attributes
    ----------
    start_z / distance:
        Window, matching the SMD convention.
    n_stations:
        Quadrature points (inclusive of both ends).
    sampling_ns:
        Equilibrium sampling time per station.
    equilibration_ns:
        Discarded relaxation time per station after moving the restraint.
    """

    start_z: float = -5.0
    distance: float = 10.0
    n_stations: int = 21
    sampling_ns: float = 0.1
    equilibration_ns: float = 0.02

    #: Restraint stiffness in pN/A.  Stiff restraints localize the
    #: coordinate at each station (small mean-force smoothing); the same
    #: thermal-width tradeoff as SMD applies.
    kappa_pn = 1000.0

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ConfigurationError("distance must be positive")
        if self.n_stations < 2:
            raise ConfigurationError("need at least 2 stations")
        if self.sampling_ns <= 0 or self.equilibration_ns < 0:
            raise ConfigurationError("invalid sampling/equilibration times")

    @property
    def kappa_internal(self) -> float:
        return pn_per_angstrom(self.kappa_pn)

    @property
    def stations(self) -> np.ndarray:
        return np.linspace(self.start_z, self.start_z + self.distance,
                           self.n_stations)

    @property
    def total_time_ns(self) -> float:
        """Physical MD time per replica across all stations."""
        return self.n_stations * (self.sampling_ns + self.equilibration_ns)


@dataclass
class TIResult:
    """TI output: mean forces per station plus the integrated PMF.

    ``mean_positions`` is the absolute coordinate grid the PMF lives on
    (the umbrella-integration assignment); ``pmf.displacements`` are
    relative to ``mean_positions.min()``.
    """

    protocol: TIProtocol
    stations: np.ndarray
    mean_positions: np.ndarray
    mean_forces: np.ndarray
    force_errors: np.ndarray
    pmf: PMFEstimate
    cpu_hours: float


def run_thermodynamic_integration(
    model: ReducedTranslocationModel,
    protocol: Optional[TIProtocol] = None,
    n_replicas: int = 16,
    seed: SeedLike = None,
    obs: Optional[Obs] = None,
) -> TIResult:
    """Run restrained-coordinate TI over the window.

    At each station the replica ensemble equilibrates in the restraint and
    then samples the restoring force ``kappa (z_i - z)``; its ensemble/time
    mean estimates ``dPhi/dz`` at the station.  Trapezoid integration over
    stations yields the PMF.  Per-station force errors are standard errors
    over replicas (each replica's time average is one sample).

    ``protocol`` defaults to ``TIProtocol()``; ``obs`` is the
    instrumentation handle (read-only: spans and counters, never RNG
    draws, so instrumented runs stay bit-identical).
    """
    if protocol is None:
        protocol = TIProtocol()
    if n_replicas < 2:
        raise ConfigurationError("need at least 2 replicas for error bars")
    obs = as_obs(obs)
    rng = as_generator(seed)
    kappa = protocol.kappa_internal
    z_end = protocol.start_z + protocol.distance
    stiffness = kappa + model.max_curvature(protocol.start_z - 2.0, z_end + 2.0)
    dt = model.stable_timestep(stiffness)

    stations = protocol.stations
    n_equil = int(np.ceil(protocol.equilibration_ns / dt))
    n_sample = max(int(np.ceil(protocol.sampling_ns / dt)), 1)

    mean_forces = np.empty(stations.size)
    force_errors = np.empty(stations.size)
    mean_positions = np.empty(stations.size)

    # Walk the restraint along the stations, dragging the ensemble with it
    # (cheaper than re-equilibrating from scratch; the per-station
    # equilibration heals the move).
    with obs.span("core.ti", n_stations=stations.size, n_replicas=n_replicas):
        z = model.equilibrate(
            n_replicas, spring_kappa=kappa, spring_center=float(stations[0]),
            dt=dt, time_ns=protocol.equilibration_ns, seed=rng,
        )
        for i, station in enumerate(stations):
            for _ in range(n_equil):
                model.step_ensemble(z, dt, rng, spring_kappa=kappa,
                                    spring_center=float(station))
            # Time-average the mean restoring force and position per replica.
            acc = np.zeros(n_replicas)
            pos_acc = np.zeros(n_replicas)
            for _ in range(n_sample):
                model.step_ensemble(z, dt, rng, spring_kappa=kappa,
                                    spring_center=float(station))
                acc += kappa * (station - z)
                pos_acc += z
            per_replica = acc / n_sample
            mean_forces[i] = per_replica.mean()
            force_errors[i] = per_replica.std(ddof=1) / np.sqrt(n_replicas)
            mean_positions[i] = pos_acc.mean() / n_sample

    # Umbrella-integration assignment: at equilibrium
    # <kappa (station - z)> = <dU/dz> ~= Phi'(<z>); the coordinate sits at
    # <z> = station - Phi'/kappa, so the measured mean force belongs to the
    # measured mean *position*, not to the station — assigning it to the
    # station would shift features by Phi'/kappa (sub-A at stiff kappa but
    # systematic).
    order = np.argsort(mean_positions)
    grid = mean_positions[order]
    dphi_dz = mean_forces[order]
    displacements = grid - grid[0]
    values = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dphi_dz[1:] + dphi_dz[:-1]) * np.diff(grid))]
    )

    total_ns = n_replicas * protocol.total_time_ns
    if obs.enabled:
        obs.metrics.inc("core.ti.stations", stations.size)
        obs.metrics.inc("core.ti.sim_ns", total_ns)
        obs.metrics.inc("core.ti.cpu_hours", total_ns * PAPER_CPU_HOURS_PER_NS)
    pmf = PMFEstimate(
        displacements=displacements,
        values=values,
        kappa_pn=protocol.kappa_pn,
        velocity=0.0,  # TI has no pulling velocity
        estimator="thermodynamic-integration",
        n_samples=n_replicas,
        temperature=model.temperature,
        cpu_hours=total_ns * PAPER_CPU_HOURS_PER_NS,
    )
    return TIResult(
        protocol=protocol,
        stations=stations,
        mean_positions=grid,
        mean_forces=mean_forces,
        force_errors=force_errors,
        pmf=pmf,
        cpu_hours=pmf.cpu_hours,
    )
