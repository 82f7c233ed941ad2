"""Convergence diagnostics for Jarzynski estimates.

The paper's Section IV narrative — "too large a velocity can be a major
source of systematic error" — has a quantitative core: once the work spread
exceeds a few kT, the exponential average is dominated by rare low-work
trajectories and the *effective* number of samples collapses.  These
diagnostics make that visible:

* :func:`effective_sample_size` — Kish ESS of the JE weights
  ``exp(-beta W)``; an ESS near 1 means one trajectory carries the whole
  estimate.
* :func:`dominance` — the largest single-trajectory weight fraction.
* :func:`convergence_report` — per-displacement diagnostics with a simple
  verdict, used by tests and available to users before they trust a PMF.
* :func:`block_bootstrap` — seeded block-bootstrap bias/variance estimate
  of any registered estimator; the adaptive replica-allocation controller
  scores pulling windows by its :attr:`~BlockBootstrapDiagnostic.mse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from ..errors import AnalysisError
from ..rng import SeedLike, as_seed_int, stream_for
from ..smd.work import WorkEnsemble
from ..units import KB
from .pmf import _lookup

__all__ = [
    "effective_sample_size",
    "dominance",
    "ConvergenceReport",
    "convergence_report",
    "BlockBootstrapDiagnostic",
    "block_bootstrap",
]


def _log_weights(works: np.ndarray, temperature: float) -> np.ndarray:
    w = np.asarray(works, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise AnalysisError("works must be a non-empty 1-D array")
    if not np.all(np.isfinite(w)):
        raise AnalysisError("non-finite work values")
    lw = -w / (KB * temperature)
    return lw - logsumexp(lw)  # normalized log weights


def effective_sample_size(works: np.ndarray, temperature: float) -> float:
    """Kish ESS of the Jarzynski weights: ``1 / sum(p_i^2)`` in [1, m]."""
    lw = _log_weights(works, temperature)
    return float(np.exp(-logsumexp(2.0 * lw)))


def dominance(works: np.ndarray, temperature: float) -> float:
    """Largest normalized weight: 1/m (healthy) .. 1 (one pull decides)."""
    lw = _log_weights(works, temperature)
    return float(np.exp(lw.max()))


@dataclass
class ConvergenceReport:
    """Per-ensemble JE health summary (evaluated at the final station)."""

    n_samples: int
    ess: float
    dominance: float
    work_spread_kT: float

    @property
    def ess_fraction(self) -> float:
        return self.ess / self.n_samples

    @property
    def converged(self) -> bool:
        """Heuristic verdict: a usable JE estimate keeps a reasonable
        fraction of its samples effective and no single pull dominant."""
        return self.ess_fraction > 0.3 and self.dominance < 0.5

    def summary(self) -> str:
        verdict = "OK" if self.converged else "POOR"
        return (f"JE convergence: {verdict} — ESS {self.ess:.1f}/{self.n_samples} "
                f"({100 * self.ess_fraction:.0f}%), max weight "
                f"{100 * self.dominance:.0f}%, work spread "
                f"{self.work_spread_kT:.1f} kT")


def convergence_report(ensemble: WorkEnsemble) -> ConvergenceReport:
    """Diagnose the JE estimate built from ``ensemble``'s final works."""
    works = ensemble.final_works()
    if works.size < 2:
        raise AnalysisError("need at least 2 samples to diagnose")
    return ConvergenceReport(
        n_samples=ensemble.n_samples,
        ess=effective_sample_size(works, ensemble.temperature),
        dominance=dominance(works, ensemble.temperature),
        work_spread_kT=ensemble.dissipated_width(),
    )


@dataclass
class BlockBootstrapDiagnostic:
    """Bootstrap estimate of an estimator's sampling behaviour.

    ``bias`` is the classic bootstrap bias estimate (mean of the resampled
    estimates minus the full-sample estimate) — for the JE exponential
    average this tracks the finite-sample systematic error, which plain
    resampling *variance* is blind to.  ``mse`` combines both into the
    controller's figure of merit.
    """

    estimate: float
    bias: float
    variance: float
    n_samples: int
    n_blocks: int
    n_boot: int

    @property
    def mse(self) -> float:
        """Bias-squared plus variance: expected squared error proxy."""
        return self.bias**2 + self.variance


def block_bootstrap(
    works: np.ndarray,
    temperature: float,
    *,
    n_boot: int = 64,
    n_blocks: int = 8,
    seed: SeedLike = 0,
    method: str = "exponential",
) -> BlockBootstrapDiagnostic:
    """Seeded block-bootstrap bias/variance of a registered estimator.

    Replicas are split (in order) into ``n_blocks`` contiguous blocks —
    block boundaries respect store-task granularity, so any residual
    within-task structure survives resampling — and ``n_boot`` resamples
    draw blocks with replacement.  Deterministic for a given ``seed``: the
    resampling stream is ``stream_for(seed, "core.block_bootstrap")``,
    independent of whatever else the caller's seed drives.
    """
    estimate = _lookup(method, paired=False)
    w = np.asarray(works, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise AnalysisError("works must be (m,) with m >= 2")
    m = w.size
    if n_blocks < 2 or m < n_blocks:
        raise AnalysisError(f"need >= {max(n_blocks, 2)} samples for {n_blocks} blocks")
    if n_boot < 2:
        raise AnalysisError("n_boot must be at least 2")

    full = float(estimate(w, temperature))
    edges = np.linspace(0, m, n_blocks + 1).astype(int)
    blocks = [w[a:b] for a, b in zip(edges[:-1], edges[1:])]
    rng = stream_for(as_seed_int(seed), "core.block_bootstrap")
    estimates = np.empty(n_boot, dtype=np.float64)
    for b in range(n_boot):
        picks = rng.integers(0, n_blocks, size=n_blocks)
        resampled = np.concatenate([blocks[i] for i in picks])
        estimates[b] = float(estimate(resampled, temperature))
    return BlockBootstrapDiagnostic(
        estimate=full,
        bias=float(estimates.mean() - full),
        variance=float(estimates.var(ddof=1)),
        n_samples=m,
        n_blocks=n_blocks,
        n_boot=n_boot,
    )
