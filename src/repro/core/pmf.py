"""PMF reconstruction from work ensembles.

The potential of mean force Phi along the pore axis (the paper's central
quantity) is estimated from a :class:`~repro.smd.work.WorkEnsemble` by one
of the Jarzynski estimators.  The curve is the free energy of the *trap*
coordinate, F_kappa(lambda), not the surface U(z) itself.  A
:class:`PMFEstimate` bundles the curve with its provenance so the error
analysis and plotting layers need nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..smd.work import WorkEnsemble
from .estimators import available_estimators, estimate_free_energy

__all__ = ["PMFEstimate", "estimate_pmf"]


@dataclass
class PMFEstimate:
    """An estimated free-energy profile.

    Attributes
    ----------
    displacements:
        ``(g,)`` trap displacements from the pull start (A).
    values:
        ``(g,)`` PMF (kcal/mol), zeroed at the first station.
    kappa_pn / velocity:
        Protocol parameters, for labelling.
    estimator:
        Which Jarzynski estimator produced the curve.
    n_samples:
        Ensemble size behind the estimate.
    cpu_hours:
        Modelled cost of the underlying ensemble.
    """

    displacements: np.ndarray
    values: np.ndarray
    kappa_pn: float
    velocity: float
    estimator: str
    n_samples: int
    temperature: float
    cpu_hours: float = 0.0

    def __post_init__(self) -> None:
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.displacements.shape != self.values.shape:
            raise ConfigurationError("displacement/value shape mismatch")

    def interpolated(self, displacements: np.ndarray) -> np.ndarray:
        """Linear interpolation onto another displacement grid."""
        d = np.asarray(displacements, dtype=np.float64)
        if d.min() < self.displacements[0] - 1e-9 or d.max() > self.displacements[-1] + 1e-9:
            raise AnalysisError("interpolation grid outside estimate support")
        return np.interp(d, self.displacements, self.values)

    def label(self) -> str:
        return f"kappa={self.kappa_pn:g}pN/A v={self.velocity:g}A/ns ({self.estimator})"


def estimate_pmf(
    ensemble: WorkEnsemble,
    estimator: str = "exponential",
    **estimator_kwargs,
) -> PMFEstimate:
    """Estimate the PMF from a work ensemble.

    Parameters
    ----------
    estimator:
        Any name in the estimator registry (see
        :func:`~repro.core.estimators.estimate_free_energy`):
        ``"exponential"`` (direct Jarzynski), ``"cumulant"`` (2nd order),
        ``"block"``, ``"parallel-pull"``, ``"fr"``, or a name added via
        :func:`~repro.core.estimators.register_estimator`.
    estimator_kwargs:
        Passed through to the estimator unchanged — e.g. ``n_blocks=8``
        for ``"block"``, ``group_size=4`` for ``"parallel-pull"``, or
        ``reverse_works=`` for the paired ``"fr"`` method (for which
        :func:`~repro.core.fr.forward_reverse_pmf` is the richer entry
        point).
    """
    if estimator not in available_estimators():
        raise ConfigurationError(
            f"unknown estimator {estimator!r}; "
            f"choose from {sorted(available_estimators())}"
        )
    values = estimate_free_energy(
        ensemble.works, ensemble.temperature, method=estimator,
        **estimator_kwargs,
    )
    if isinstance(values, tuple):
        # Estimators like "block" return (mean, spread); the PMF curve is
        # the mean component.
        values = values[0]
    values = np.asarray(values, dtype=float)
    values = values - values[0]
    return PMFEstimate(
        displacements=ensemble.displacements.copy(),
        values=values,
        kappa_pn=ensemble.protocol.kappa_pn,
        velocity=ensemble.protocol.velocity,
        estimator=estimator,
        n_samples=ensemble.n_samples,
        temperature=ensemble.temperature,
        cpu_hours=ensemble.cpu_hours,
    )

