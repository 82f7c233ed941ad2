"""Full-axis PMF production — the paper's scientific deliverable.

"By computing the PMF for the translocating biomolecule along the vertical
axis of the protein pore, significant insight into the translocation process
can be obtained."  The Fig. 4 study picks the (kappa, v) parameters on one
10 A window; production then covers the *whole axis* with consecutive
sub-trajectory windows (Section IV-A), each pulled as its own freshly
equilibrated ensemble — the decomposition that makes the problem
grid-shaped — and stitches the per-window PMFs into one profile.  The
windows are the cells of one task plan (:func:`repro.smd.plan.run_cells`):
one stacked engine call, store-addressable like any other task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from ..core.pmf import PMFEstimate, estimate_pmf
from ..errors import ConfigurationError
from ..obs import Obs
from ..pore.reduced import ReducedTranslocationModel
from ..pore.tabulated import full_axis_chain_potential
from ..rng import SeedLike
from ..smd.plan import run_cells
from ..smd.protocol import PullingProtocol
from ..smd.subtrajectory import plan_subtrajectories, stitch_pmfs
from ..smd.work import WorkEnsemble

__all__ = ["FullAxisResult", "run_full_axis_production"]


@dataclass
class FullAxisResult:
    """Stitched full-axis PMF plus per-window provenance."""

    z: np.ndarray
    pmf: np.ndarray
    reference: np.ndarray
    window_estimates: List[PMFEstimate]
    window_starts: List[float]
    ensembles: List[WorkEnsemble]
    total_cpu_hours: float

    @property
    def n_windows(self) -> int:
        return len(self.window_estimates)

    @property
    def rms_error(self) -> float:
        return float(np.sqrt(np.mean((self.pmf - self.reference) ** 2)))

    def barrier_height(self) -> float:
        """Largest uphill excursion of the de-tilted profile (the
        constriction barrier the translocation must cross)."""
        # Remove the mean slope to expose local structure.
        slope = (self.pmf[-1] - self.pmf[0]) / (self.z[-1] - self.z[0])
        detrended = self.pmf - slope * (self.z - self.z[0])
        return float(detrended.max() - detrended[0])


def run_full_axis_production(
    model: Optional[ReducedTranslocationModel] = None,
    kappa_pn: float = 100.0,
    velocity: float = 12.5,
    axis_range: Tuple[float, float] = (-30.0, 30.0),
    window: float = 10.0,
    n_samples: int = 24,
    seed: SeedLike = 2005,
    obs: Optional[Obs] = None,
    store: Any = None,
) -> FullAxisResult:
    """Run the production sweep over ``axis_range``.

    Default model: the full-axis chain potential derived from the 3-D
    pore's on-axis landscape (:func:`full_axis_chain_potential`).  Window
    ``i`` is the cell ``("production-window", i)`` — an independent
    ensemble on its own deterministic stream of that name; per-window PMFs
    are stitched at the junctions.

    ``seed`` is any :data:`~repro.rng.SeedLike`, normalized via
    :func:`repro.rng.as_seed_int` (integer seeds keep their historical
    bit-for-bit behaviour); ``obs`` is the optional instrumentation
    handle, forwarded to the windows' stacked pulling call.  ``store`` is
    an optional result store: each window is one task, so a re-run on the
    same store resolves from hits and an interrupted sweep resumes.
    """
    if axis_range[1] <= axis_range[0]:
        raise ConfigurationError("axis_range must be increasing")
    if model is None:
        model = ReducedTranslocationModel(full_axis_chain_potential())
    total = axis_range[1] - axis_range[0]
    window = min(window, total)     # a short axis is one (shorter) window
    base = PullingProtocol(kappa_pn=kappa_pn, velocity=velocity,
                           distance=window, start_z=axis_range[0],
                           equilibration_ns=0.05)
    plan = plan_subtrajectories(base, total_distance=total, window=window)

    cells = [(proto, ("production-window", i))
             for i, proto in enumerate(plan.protocols)]
    ensembles = list(run_cells(model, cells, None, n_samples, seed=seed,
                               store=store, obs=obs).values())
    estimates = [estimate_pmf(ens) for ens in ensembles]
    starts = [proto.start_z for proto in plan.protocols]
    z, pmf = stitch_pmfs([est.displacements for est in estimates],
                         [est.values for est in estimates], starts)
    reference = model.reference_pmf(z)
    return FullAxisResult(
        z=z,
        pmf=pmf,
        reference=reference,
        window_estimates=estimates,
        window_starts=starts,
        ensembles=ensembles,
        total_cpu_hours=sum(e.cpu_hours for e in ensembles),
    )
