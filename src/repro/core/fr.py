"""Second-generation estimators: forward–reverse and parallel-pulling.

Both attack the same weakness of the direct Jarzynski estimator — its
``exp(sigma_W^2 / kT^2)``-ish sample demand once pulls dissipate more than
a couple of kT:

* :func:`fr_estimator` implements the forward–reverse (FR) method of
  Kosztin, Barz & Janosi (PAPERS.md): from *paired* forward and
  time-mirrored reverse pulls over the same window,

  ``Phi(z_i) - Phi(a) = ( <W_F(a->z_i)> - <W_R(z_i->a)> ) / 2``

  using only *mean* works — no exponential average, so no finite-sample
  JE bias at all when the work distributions are Gaussian (the
  stiff-spring regime).  The half-sum
  ``W_d(z_i) = ( <W_F> + <W_R> ) / 2`` is the dissipated work, whose
  slope yields a position-resolved diffusion coefficient
  ``D(z) = kT v / W_d'(z)`` — a second observable for free.

* :func:`parallel_pull_estimator` implements Ngo's parallel-pulling
  estimator (PAPERS.md): partition the ``m`` replicas into ``K`` groups
  of ``M``, treat each group's *summed* work as one pull of a composite
  ``M``-particle system, and apply JE to the composites::

      DeltaF = -(kT / M) * ln( (1/K) sum_k exp(-W_k / kT) )

  ``M = 1`` recovers the direct estimator bit for bit; ``M = m`` is the
  mean work (upper bound); intermediate ``M`` trades variance against
  bias.  The default ``M ~ sqrt(m)`` balances the two.

Both sit behind :func:`~repro.core.pmf.estimate_pmf`; the *paired* ``"fr"``
reads ``reverse=``, checked by :func:`check_fr_pair`.
:func:`forward_reverse_pmf` wraps that estimate with the dissipated work
and D(z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.special import logsumexp

from ..errors import AnalysisError
from ..units import KB
from .jarzynski import _check_works

if TYPE_CHECKING:
    from .pmf import PMFEstimate

__all__ = [
    "fr_estimator",
    "parallel_pull_estimator",
    "default_group_size",
    "FRProfile",
    "check_fr_pair",
    "forward_reverse_pmf",
]

#: Tolerance (in units of the mean record spacing) for the grid-symmetry
#: check: record schedules round stations to integer integration strides,
#: so mirrored stations can disagree by up to ~one stride at mid-window.
_SYMMETRY_TOL_SPACINGS = 1.5


def fr_estimator(
    works: np.ndarray, temperature: float, *, reverse_works: np.ndarray
) -> np.ndarray:
    """Forward–reverse PMF estimate on the forward station grid.

    Parameters
    ----------
    works:
        ``(m_f, g)`` forward work profiles (column ``i`` = work
        accumulated from the window bottom ``a`` to station ``z_i``).
    reverse_works:
        ``(m_r, g)`` reverse work profiles from the *mirrored* pull
        (column ``j`` = work accumulated from the window top ``b`` down
        to travel ``s_j``).  The reverse work for the segment
        ``z_i -> a`` is read off by the index flip
        ``W_R[:, -1] - W_R[:, g-1-i]`` — exact when the record grid is
        mirror-symmetric, which the shared record schedule guarantees to
        within one integration stride.

    Returns the ``(g,)`` free-energy profile relative to station 0 (which
    is exactly 0 there: both mean works vanish at zero travel).
    """
    mean_f, mean_r_seg = _fr_means(works, reverse_works)
    out = 0.5 * (mean_f - mean_r_seg)
    return out if np.asarray(works).ndim > 1 else out[0]


def _fr_means(works: np.ndarray, reverse_works: np.ndarray):
    """``(mean W_F(a -> z_i), mean W_R(z_i -> a))`` per forward station."""
    w_f, w_r = _check_works(works), _check_works(reverse_works)
    if w_f.shape[1] != w_r.shape[1]:
        raise AnalysisError(
            f"forward and reverse ensembles record different station counts "
            f"({w_f.shape[1]} vs {w_r.shape[1]}); FR pairing needs the same "
            "record schedule in both directions"
        )
    return (w_f.mean(axis=0),
            (w_r[:, -1][:, None] - w_r[:, ::-1]).mean(axis=0))


def default_group_size(n_samples: int) -> int:
    """Ngo's bias/variance compromise: ``M = round(sqrt(m))``, at least 1."""
    if n_samples < 1:
        raise AnalysisError("need at least 1 sample")
    return max(1, int(round(np.sqrt(n_samples))))


def parallel_pull_estimator(
    works: np.ndarray, temperature: float, group_size: Optional[int] = None
) -> np.ndarray:
    """Ngo's parallel-pulling JE estimate per displacement column.

    Replicas are partitioned, in order, into ``K = m // M`` disjoint
    groups of ``M = group_size``; a trailing remainder of fewer than
    ``M`` replicas is dropped (deterministically — callers who care
    should send ``m`` divisible by ``M``).

    ``group_size=1`` reproduces :func:`~repro.core.jarzynski.
    exponential_estimator` bit for bit; ``group_size=m`` degenerates to
    the mean work.  Default: :func:`default_group_size`.
    """
    w = _check_works(works)
    m = w.shape[0]
    if group_size is None:
        group_size = default_group_size(m)
    group_size = int(group_size)
    if group_size < 1:
        raise AnalysisError("group_size must be at least 1")
    n_groups = m // group_size
    if n_groups < 1:
        raise AnalysisError(
            f"group_size {group_size} exceeds the {m} available samples"
        )
    kT = KB * temperature
    used = w[: n_groups * group_size]
    composite = used.reshape(n_groups, group_size, -1).sum(axis=1)
    log_mean = logsumexp(-composite / kT, axis=0) - np.log(n_groups)
    out = -(kT / group_size) * log_mean
    return out if np.asarray(works).ndim > 1 else out[0]


@dataclass
class FRProfile:
    """Forward–reverse reconstruction of one pulling window.

    Attributes
    ----------
    estimate:
        The window's FR :class:`~repro.core.pmf.PMFEstimate` (both
        directions' cost and samples); ``pmf`` is its ``values``.
    stations:
        ``(g,)`` axis positions (A), ascending from the window bottom.
    dissipated:
        ``(g,)`` mean dissipated work accumulated to each station.
    diffusion:
        ``(g,)`` position-resolved diffusion coefficient ``kT v / W_d'``
        (A^2/ns); ``inf`` where the local dissipation slope is not
        positive (no frictional signal to invert).
    """

    estimate: PMFEstimate
    stations: np.ndarray
    dissipated: np.ndarray
    diffusion: np.ndarray

    @property
    def pmf(self) -> np.ndarray:
        return self.estimate.values


def check_fr_pair(forward, reverse) -> None:
    """Raise :class:`~repro.errors.AnalysisError` unless the ensembles are
    (forward, reverse) pulls of one window at one temperature, on mirrored
    record grids of one size."""
    fp, rp = forward.protocol, reverse.protocol
    if fp.direction != "forward" or rp.direction != "reverse":
        raise AnalysisError(
            "FR needs (forward, reverse) ensembles, got directions "
            f"({fp.direction!r}, {rp.direction!r})"
        )
    if fp.reversed() != rp:
        raise AnalysisError(
            "forward and reverse protocols describe different windows: "
            f"{fp.label()} vs {rp.label()}"
        )
    if forward.temperature != reverse.temperature:
        raise AnalysisError("forward/reverse ensembles at different temperatures")
    s_f, s_r = forward.displacements, reverse.displacements
    if s_f.size != s_r.size:
        raise AnalysisError("forward/reverse record counts differ")
    spacing = fp.distance / (s_f.size - 1)
    mirror_gap = np.abs(s_f + s_r[::-1] - fp.distance).max()
    if mirror_gap > _SYMMETRY_TOL_SPACINGS * spacing:
        raise AnalysisError(
            f"record grids are not mirror-symmetric (max gap {mirror_gap:.3g} A "
            f"vs spacing {spacing:.3g} A); rerun both directions with the "
            "same n_records"
        )


def forward_reverse_pmf(forward, reverse) -> FRProfile:
    """Combine a matched forward/reverse ensemble pair into an FR profile.

    Parameters
    ----------
    forward, reverse:
        :class:`~repro.smd.work.WorkEnsemble` for the two directions of
        one window — same protocol parameters, opposite ``direction``
        (e.g. from :func:`~repro.smd.run_bidirectional_ensemble`).

    The PMF is ``estimate_pmf(forward, "fr", reverse=reverse)``, which
    checks the pair; the profile adds the dissipated work and D(z).
    """
    from .pmf import estimate_pmf  # pmf registers this module's estimators

    estimate = estimate_pmf(forward, "fr", reverse=reverse)
    mean_f, mean_r_seg = _fr_means(forward.works, reverse.works)
    dissipated = 0.5 * (mean_f + mean_r_seg)

    stations = forward.trap_stations()
    kT = KB * forward.temperature
    slope = np.gradient(dissipated, stations)
    with np.errstate(divide="ignore"):
        diffusion = np.where(slope > 0.0,
                             kT * forward.protocol.velocity / slope, np.inf)

    return FRProfile(
        estimate=estimate,
        stations=stations,
        dissipated=dissipated,
        diffusion=diffusion,
    )
