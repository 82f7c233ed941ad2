"""Statistical and systematic error analysis of PMF estimates.

Section IV of the paper rests on two error measures per (kappa, v) cell:

* **statistical error** ``sigma_stat`` — sampling noise of the estimator,
  measured by :func:`bootstrap_error` (the package's one resampler; the
  adaptive controller scores windows by its ``mse``), then *normalized for
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
from typing import Optional, Sequence

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..rng import SeedLike, as_generator
from ..smd.work import WorkEnsemble
from .pmf import PMFEstimate, _lookup

__all__ = [
    "BootstrapError",
    "bootstrap_error",
    "cost_normalized_error",
    "cost_normalization_factor",
    "pmf_error",
    "pairwise_consistency",
    "ErrorBudget",
    "analyze_ensemble",
]


@dataclass(frozen=True)
class BootstrapError:
    """An estimator's resampled error, per station.

    ``estimate`` is the full-sample estimate; ``bias`` the mean of the
    resampled estimates minus it (for the JE exponential average this
    tracks the finite-sample systematic error that a plain variance is
    blind to); ``variance`` their sample variance (ddof=1).  Each has the
    shape the estimator returns: ``(g,)`` for ``(m, g)`` works, a scalar
    for ``(m,)`` works.
    """

    estimate: np.ndarray
    bias: np.ndarray
    variance: np.ndarray

    @property
    def mse(self) -> np.ndarray:
        """Bias-squared plus variance: the expected squared error."""
        return self.bias**2 + self.variance


def bootstrap_error(
    works: np.ndarray,
    temperature: float,
    estimator: str,
    rng: np.random.Generator,
    *,
    n_boot: int,
    n_blocks: Optional[int] = None,
) -> BootstrapError:
    """Bootstrap bias and variance of a registered estimator.

    The ``m`` replicas (axis 0 of ``works``) are split, in order, into
    ``n_blocks`` contiguous blocks (default ``m``: one replica per block,
    the plain replica bootstrap); each of the ``n_boot`` resamples draws
    ``rng.integers(0, n_blocks, n_blocks)`` blocks with replacement and
    pushes them through the full estimator (the JE exponential average is
    nonlinear, so linearized error propagation would understate the error
    exactly where it matters).  Fewer, larger blocks keep whatever
    structure lies within a store task.  ``rng`` is the caller's stream:
    the same generator state gives the same bits.
    """
    fn = _lookup(estimator, paired=False)
    w = np.asarray(works, dtype=np.float64)
    m = w.shape[0]
    n_blocks = m if n_blocks is None else n_blocks
    if n_boot < 2:
        raise ConfigurationError("n_boot must be at least 2")
    if not 2 <= n_blocks <= m:
        raise AnalysisError(
            f"bootstrap needs 2 <= n_blocks <= m, got {n_blocks} blocks "
            f"of {m} replicas")
    full = fn(w, temperature)
    edges = np.linspace(0, m, n_blocks + 1).astype(int)
    estimates = np.empty((n_boot,) + np.shape(full), dtype=np.float64)
    for b in range(n_boot):
        picks = rng.integers(0, n_blocks, size=n_blocks)
        idx = np.concatenate([np.arange(edges[p], edges[p + 1]) for p in picks])
        estimates[b] = fn(w[idx], temperature)
    return BootstrapError(
        estimate=full,
        bias=estimates.mean(axis=0) - full,
        variance=estimates.var(axis=0, ddof=1),
    )


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
    """Max RMS spread between PMFs in a set.

    The paper's operational systematic-error check: if halving v leaves the
    PMF unchanged, the faster pull was already adequate.  Large spread
    across v at fixed kappa (Fig. 4a, kappa = 10) flags decoupling.  Each
    velocity records on its own step-quantized grid, so the curves are
    compared on the slowest estimate's grid, clipped to the range every
    estimate covers (:meth:`PMFEstimate.interpolated`).
    """
    if len(estimates) < 2:
        raise AnalysisError("need at least two estimates to compare")
    lo = max(e.displacements[0] for e in estimates)
    hi = min(e.displacements[-1] for e in estimates)
    grid = min(estimates, key=lambda e: e.velocity).displacements
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size < 2:
        raise AnalysisError("estimates share no displacement range")
    curves = [e.interpolated(grid) for e in estimates]
    worst = 0.0
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            worst = max(worst, pmf_error(curves[i], curves[j]))
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
    boot = bootstrap_error(ensemble.works, ensemble.temperature, estimator,
                           as_generator(seed), n_boot=n_bootstrap)
    stat_curve = np.sqrt(boot.variance)
    # Scalar summary: RMS of the per-station bootstrap error (station 0 is
    # pinned to zero by construction and excluded).
    sigma_raw = float(np.sqrt(np.mean(stat_curve[1:] ** 2)))
    sigma_norm = float(
        cost_normalized_error(sigma_raw, ensemble.protocol.velocity, reference_velocity)
    )
    sigma_sys = pmf_error(boot.estimate, reference)
    return ErrorBudget(
        kappa_pn=ensemble.protocol.kappa_pn,
        velocity=ensemble.protocol.velocity,
        sigma_stat_raw=sigma_raw,
        sigma_stat=sigma_norm,
        sigma_sys=sigma_sys,
        n_samples=ensemble.n_samples,
        cpu_hours=ensemble.cpu_hours,
    )
