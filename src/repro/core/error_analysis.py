"""Statistical and systematic error analysis of PMF estimates.

Section IV of the paper rests on two error measures per (kappa, v) cell:

* **statistical error** ``sigma_stat`` — sampling noise of the estimator,
  measured here by bootstrap resampling of replicas, then *normalized for
  computational cost*: in the time one sample at v = 12.5 A/ns is generated,
  eight samples at v = 100 A/ns can be generated, so raw errors measured at
  equal sample counts must be compared as if each velocity had spent the
  same CPU budget.  Errors scale as 1/sqrt(n), hence the paper's sqrt(8).

* **systematic error** ``sigma_sys`` — deviation of the estimate from the
  equilibrium (adiabatic-limit) PMF.  The reduced model's exact potential
  provides that reference (a luxury the paper did not have, which is why it
  compares velocities against each other; we report both views).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..rng import SeedLike, as_generator
from ..smd.work import WorkEnsemble
from .pmf import PMFEstimate, estimate_pmf

__all__ = [
    "bootstrap_statistical_error",
    "cost_normalized_error",
    "cost_normalization_factor",
    "pmf_error",
    "pairwise_consistency",
    "ErrorBudget",
    "analyze_ensemble",
]


def bootstrap_statistical_error(
    ensemble: WorkEnsemble,
    estimator: str = "exponential",
    n_bootstrap: int = 200,
    seed: SeedLike = None,
) -> np.ndarray:
    """Bootstrap standard error of the PMF at each displacement, ``(g,)``.

    Resamples replicas with replacement; each resample is pushed through the
    full estimator (the JE exponential average is nonlinear, so linearized
    error propagation would understate the error exactly where it matters).
    """
    if n_bootstrap < 2:
        raise ConfigurationError("n_bootstrap must be at least 2")
    if ensemble.n_samples < 2:
        raise AnalysisError("bootstrap needs at least 2 replicas")
    rng = as_generator(seed)
    m = ensemble.n_samples
    curves = np.empty((n_bootstrap, ensemble.n_records), dtype=np.float64)
    for b in range(n_bootstrap):
        idx = rng.integers(0, m, size=m)
        est = estimate_pmf(ensemble.subset(idx), estimator=estimator)
        curves[b] = est.values
    return curves.std(axis=0, ddof=1)


def cost_normalization_factor(velocity: float, reference_velocity: float) -> float:
    """sqrt of the per-sample cost ratio relative to the reference velocity.

    A sample at velocity ``v`` costs ``1/v`` (simulated time = distance/v),
    so at a fixed budget one affords ``v / v_ref`` times as many samples as
    at ``v_ref``; 1/sqrt(n) scaling then multiplies the *raw* equal-count
    error by ``sqrt(v_ref / v)``.  With v_ref = 12.5 and v = 100 this is
    1/sqrt(8): the paper's normalization.
    """
    if velocity <= 0.0 or reference_velocity <= 0.0:
        raise ConfigurationError("velocities must be positive")
    return float(np.sqrt(reference_velocity / velocity))


def cost_normalized_error(
    raw_error: np.ndarray | float,
    velocity: float,
    reference_velocity: float,
) -> np.ndarray | float:
    """Scale a raw equal-sample-count error to equal CPU budget."""
    return raw_error * cost_normalization_factor(velocity, reference_velocity)


def pmf_error(values: np.ndarray, reference: np.ndarray) -> float:
    """RMS deviation (kcal/mol) of a ``(g,)`` PMF curve from a reference on
    its grid, each zeroed at its first entry (a PMF is defined up to a
    constant).  The one error measure: sigma_sys against U, the spread of
    two estimates, sigma_target / sigma_est against ``trap_pmf``."""
    est = np.asarray(values, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != est.shape:
        raise AnalysisError("reference grid does not match estimate grid")
    return float(np.sqrt(np.mean(((est - est[0]) - (ref - ref[0])) ** 2)))


def pairwise_consistency(estimates: Sequence[PMFEstimate]) -> float:
    """Max RMS spread between PMFs in a set (same grid required).

    The paper's operational systematic-error check: if halving v leaves the
    PMF unchanged, the faster pull was already adequate.  Large spread
    across v at fixed kappa (Fig. 4a, kappa = 10) flags decoupling.
    """
    if len(estimates) < 2:
        raise AnalysisError("need at least two estimates to compare")
    grid = estimates[0].displacements
    for e in estimates:
        if e.displacements.shape != grid.shape or not np.allclose(e.displacements, grid):
            raise AnalysisError("estimates must share a displacement grid")
    worst = 0.0
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            worst = max(worst, pmf_error(estimates[i].values, estimates[j].values))
    return worst


@dataclass
class ErrorBudget:
    """Per-cell error summary used by the (kappa, v) optimizer.

    ``sigma_stat`` is cost-normalized to the reference velocity;
    ``sigma_total = sqrt(sigma_stat^2 + sigma_sys^2)``.
    """

    kappa_pn: float
    velocity: float
    sigma_stat_raw: float
    sigma_stat: float
    sigma_sys: float
    n_samples: int
    cpu_hours: float

    @property
    def sigma_total(self) -> float:
        return float(np.hypot(self.sigma_stat, self.sigma_sys))


def analyze_ensemble(
    ensemble: WorkEnsemble,
    reference: np.ndarray,
    reference_velocity: float,
    estimator: str = "exponential",
    n_bootstrap: int = 200,
    seed: SeedLike = None,
) -> ErrorBudget:
    """Full per-cell error analysis: bootstrap + normalization + systematic."""
    estimate = estimate_pmf(ensemble, estimator=estimator)
    stat_curve = bootstrap_statistical_error(
        ensemble, estimator=estimator, n_bootstrap=n_bootstrap, seed=seed
    )
    # Scalar summary: RMS of the per-station bootstrap error (station 0 is
    # pinned to zero by construction and excluded).
    sigma_raw = float(np.sqrt(np.mean(stat_curve[1:] ** 2)))
    sigma_norm = float(
        cost_normalized_error(sigma_raw, ensemble.protocol.velocity, reference_velocity)
    )
    sigma_sys = pmf_error(estimate.values, reference)
    return ErrorBudget(
        kappa_pn=ensemble.protocol.kappa_pn,
        velocity=ensemble.protocol.velocity,
        sigma_stat_raw=sigma_raw,
        sigma_stat=sigma_norm,
        sigma_sys=sigma_sys,
        n_samples=ensemble.n_samples,
        cpu_hours=ensemble.cpu_hours,
    )
