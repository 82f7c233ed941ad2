"""Jarzynski free-energy estimators.

Jarzynski's equality (the paper's Ref. [9])::

    exp(-beta * DeltaF) = < exp(-beta * W) >

turns an ensemble of non-equilibrium work measurements ``W`` into the
equilibrium free-energy difference ``DeltaF``.  Three estimators are
provided, each with its well-known trade-offs:

* :func:`exponential_estimator` — the direct estimator.  Unbiased only in
  the infinite-sample limit; with ``n`` samples it is biased *upward* by
  roughly ``sigma_W^2 / (2 kT n)`` once work fluctuations exceed kT.  This
  finite-sampling bias is exactly the paper's "systematic error from too
  large a pulling velocity".
* :func:`cumulant_estimator` — second-order cumulant expansion
  ``<W> - beta Var(W) / 2``; exact for Gaussian work distributions (stiff
  spring, near-linear response), biased otherwise.
* :func:`block_estimator` — mean of exponential estimates over disjoint
  replica blocks.

All estimators operate column-wise on ``(m, g)`` work arrays (replicas x
recorded displacements) using log-sum-exp for numerical safety — raw
``exp(-beta W)`` overflows for strongly negative work (downhill pulls).
Their sampling error (bias and variance) has one measure, the seeded
resampler :func:`repro.core.bootstrap_error`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from ..errors import AnalysisError
from ..units import KB

__all__ = [
    "exponential_estimator",
    "cumulant_estimator",
    "block_estimator",
]


def _check_works(works: np.ndarray) -> np.ndarray:
    w = np.asarray(works, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    if w.ndim != 2 or w.shape[0] < 1:
        raise AnalysisError(f"works must be (m,) or (m, g) with m >= 1, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise AnalysisError("non-finite work values")
    return w


def exponential_estimator(works: np.ndarray, temperature: float) -> np.ndarray:
    """Direct Jarzynski estimate per displacement column.

    ``DeltaF = -kT ln( (1/m) sum_i exp(-W_i / kT) )`` computed with
    log-sum-exp.  Returns ``(g,)`` (or a scalar array for 1-D input).
    """
    w = _check_works(works)
    kT = KB * temperature
    m = w.shape[0]
    log_mean = logsumexp(-w / kT, axis=0) - np.log(m)
    out = -kT * log_mean
    return out if np.asarray(works).ndim > 1 else out[0]


def cumulant_estimator(works: np.ndarray, temperature: float) -> np.ndarray:
    """Second-order cumulant estimate ``<W> - Var(W)/(2 kT)`` per column."""
    w = _check_works(works)
    if w.shape[0] < 2:
        raise AnalysisError("cumulant estimator needs at least 2 samples")
    kT = KB * temperature
    out = w.mean(axis=0) - w.var(axis=0, ddof=1) / (2.0 * kT)
    return out if np.asarray(works).ndim > 1 else out[0]


def block_estimator(
    works: np.ndarray, temperature: float, n_blocks: int = 4
) -> np.ndarray:
    """Mean of the exponential estimates over ``n_blocks`` disjoint,
    in-order replica blocks, per column (a scalar for 1-D input)."""
    w = _check_works(works)
    m = w.shape[0]
    if n_blocks < 2 or m < n_blocks:
        raise AnalysisError(f"need >= {max(n_blocks, 2)} samples for {n_blocks} blocks")
    edges = np.linspace(0, m, n_blocks + 1).astype(int)
    out = np.stack(
        [
            exponential_estimator(w[a:b], temperature)
            for a, b in zip(edges[:-1], edges[1:])
        ]
    ).mean(axis=0)
    return out if np.asarray(works).ndim > 1 else out[0]
