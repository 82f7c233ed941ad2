"""Sub-trajectory stratification of a long translocation pull.

Paper Section IV-A: "when the PMF is required over a long trajectory, it is
advantageous to break up a single long trajectory into smaller trajectories"
— errors grow with distance from the equilibrated start, so each window is
pulled from a freshly equilibrated ensemble and the PMF is stitched from the
per-window estimates.  SPICE chose one 10 A window "close to the centre of
the pore"; this module provides both the window decomposition and the
stitching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from .protocol import PullingProtocol

__all__ = ["SubTrajectoryPlan", "plan_subtrajectories", "stitch_pmfs"]


@dataclass(frozen=True)
class SubTrajectoryPlan:
    """A long pull decomposed into equal windows, which share end/start
    stations.

    Attributes
    ----------
    protocols:
        One protocol per window, anchored consecutively along the axis.
    """

    protocols: tuple[PullingProtocol, ...]

    @property
    def n_windows(self) -> int:
        return len(self.protocols)

    @property
    def total_distance(self) -> float:
        if not self.protocols:
            return 0.0
        first, last = self.protocols[0], self.protocols[-1]
        return (last.start_z + last.distance) - first.start_z


def plan_subtrajectories(
    base: PullingProtocol,
    total_distance: float,
    window: float = 10.0,
) -> SubTrajectoryPlan:
    """Split ``total_distance`` of pulling into consecutive windows.

    All windows reuse the base protocol's (kappa, v) — the paper notes "the
    parameter values used in the computation of the final PMF need to be the
    same for all sub-trajectories".
    """
    if total_distance <= 0.0:
        raise ConfigurationError("total_distance must be positive")
    if window <= 0.0 or window > total_distance:
        raise ConfigurationError("window must be in (0, total_distance]")
    n = int(np.ceil(total_distance / window - 1e-9))
    return SubTrajectoryPlan(protocols=tuple(
        replace(base, start_z=base.start_z + i * window,
                distance=min(window, total_distance - i * window))
        for i in range(n)))


def stitch_pmfs(
    window_displacements: Sequence[np.ndarray],
    window_pmfs: Sequence[np.ndarray],
    window_starts: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Stitch per-window PMFs into one continuous profile.

    Each window's PMF is defined up to an additive constant; windows are
    shifted so consecutive profiles agree at the junction (last point of
    window i matched to first point of window i+1).

    Returns ``(z, pmf)`` over the union of the windows.
    """
    if not (len(window_displacements) == len(window_pmfs) == len(window_starts)):
        raise AnalysisError("window inputs must have equal lengths")
    if not window_pmfs:
        raise AnalysisError("no windows to stitch")

    zs: List[np.ndarray] = []
    fs: List[np.ndarray] = []
    offset = 0.0
    prev_end_value = None
    for disp, pmf, start in zip(window_displacements, window_pmfs, window_starts):
        disp = np.asarray(disp, dtype=np.float64)
        pmf = np.asarray(pmf, dtype=np.float64)
        if disp.shape != pmf.shape:
            raise AnalysisError("window displacement/pmf shape mismatch")
        z = start + disp
        f = pmf - pmf[0]
        if prev_end_value is not None:
            offset = prev_end_value
        f = f + offset
        prev_end_value = f[-1]
        if zs and np.isclose(z[0], zs[-1][-1]):
            # Drop the duplicated junction point.
            z, f = z[1:], f[1:]
        zs.append(z)
        fs.append(f)
    return np.concatenate(zs), np.concatenate(fs)
