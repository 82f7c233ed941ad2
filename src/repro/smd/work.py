"""Work-ensemble container: the raw material of every Jarzynski estimate.

A :class:`WorkEnsemble` holds, for one (kappa, v) protocol, the accumulated
external work and the instantaneous reaction coordinate of every replica at
each recorded trap displacement.  It also carries the *computational cost*
of producing the ensemble (in simulated CPU-hours via the grid cost model),
which the error analysis uses for the paper's sqrt(8) cost normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from .protocol import PullingProtocol

__all__ = ["WorkEnsemble"]


@dataclass
class WorkEnsemble:
    """Work measurements from an ensemble of identical SMD pulls.

    Attributes
    ----------
    protocol:
        The pulling protocol that generated this ensemble.
    displacements:
        ``(g,)`` trap *travel* from the pull origin (A), ascending,
        starting at 0.  For a forward protocol the origin is ``start_z``
        and station ``s`` sits at ``start_z + s``; a reverse protocol
        starts at ``start_z + distance`` and station ``s`` sits at
        ``start_z + distance - s``.  Use :meth:`trap_stations` for the
        axis positions.
    works:
        ``(m, g)`` accumulated external work per replica at each recorded
        displacement (kcal/mol); column 0 is all zeros.
    positions:
        ``(m, g)`` reaction-coordinate value of each replica at each record
        (A), for diagnosing trap-coordinate decoupling at soft kappa.
    temperature:
        Bath temperature (K).
    cpu_hours:
        Modelled computational cost of the whole ensemble.
    """

    protocol: PullingProtocol
    displacements: np.ndarray
    works: np.ndarray
    positions: np.ndarray
    temperature: float
    cpu_hours: float = 0.0

    def __post_init__(self) -> None:
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        self.works = np.asarray(self.works, dtype=np.float64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        g = self.displacements.size
        if self.works.ndim != 2 or self.works.shape[1] != g:
            raise ConfigurationError(
                f"works must be (m, {g}), got {self.works.shape}"
            )
        if self.positions.shape != self.works.shape:
            raise ConfigurationError("positions must match works shape")
        if g < 2:
            raise ConfigurationError("need at least two displacement records")
        if np.any(np.diff(self.displacements) <= 0.0):
            raise ConfigurationError("displacements must be strictly increasing")
        if self.temperature <= 0.0:
            raise ConfigurationError("temperature must be positive")

    @property
    def n_samples(self) -> int:
        """Number of replicas."""
        return self.works.shape[0]

    @property
    def n_records(self) -> int:
        return self.displacements.size

    def final_works(self) -> np.ndarray:
        """``(m,)`` total work over the full pull."""
        return self.works[:, -1]

    def mean_work(self) -> np.ndarray:
        """Ensemble-mean work profile ``(g,)``."""
        return self.works.mean(axis=0)

    def dissipated_width(self) -> float:
        """Std of total work in units of kT — the headline irreversibility
        measure (JE converges poorly once this exceeds ~1-2 kT)."""
        from ..units import KB

        return float(self.final_works().std(ddof=1) / (KB * self.temperature))

    def trap_stations(self) -> np.ndarray:
        """``(g,)`` axis positions of the trap at each record, in A.

        Descending for a reverse protocol — positions on the axis, not
        travel.
        """
        return (self.protocol.origin_z
                + self.protocol.axis_sign * self.displacements)

    def coordinate_lag(self) -> np.ndarray:
        """Mean lag of the coordinate behind the trap ``(g,)``, in A.

        Positive when the coordinate trails the trap along the travel
        direction.  Large lag signals strong dissipation; at soft kappa
        the lag's *spread* signals trap-coordinate decoupling.
        """
        lag = self.trap_stations() - self.positions.mean(axis=0)
        return self.protocol.axis_sign * lag

    def merged_with(self, other: "WorkEnsemble") -> "WorkEnsemble":
        """Pool two ensembles generated under the same protocol (e.g. the
        halves of a campaign run on the US and UK grids)."""
        if other.protocol != self.protocol:
            raise AnalysisError("cannot merge ensembles with different protocols")
        if other.temperature != self.temperature:
            raise AnalysisError("cannot merge ensembles at different temperatures")
        if not np.allclose(other.displacements, self.displacements):
            raise AnalysisError("cannot merge ensembles on different grids")
        return WorkEnsemble(
            protocol=self.protocol,
            displacements=self.displacements,
            works=np.vstack([self.works, other.works]),
            positions=np.vstack([self.positions, other.positions]),
            temperature=self.temperature,
            cpu_hours=self.cpu_hours + other.cpu_hours,
        )
