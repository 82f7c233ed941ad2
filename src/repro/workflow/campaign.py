"""The end-to-end SPICE campaign.

Chains the three phases of :mod:`repro.workflow.phases` exactly as the paper
describes its method: static visualization fixes the sub-trajectory window,
the interactive/haptic phase brackets the (kappa, v) search space, and the
batch phase runs the production grid on the federated grid and selects the
optimal parameters.  The result object is everything the paper's Sections
III-IV report, in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


from ..grid import EventLoop, FederatedGrid, Grid, ngs_sites, teragrid_sites
from ..obs import Obs, as_obs
from ..rng import SeedLike, as_seed_int
from .phases import (
    BatchPhase,
    BatchPhaseResult,
    InteractiveInsight,
    InteractivePhase,
    StaticVizPhase,
    StructuralInsight,
)

__all__ = ["SpiceCampaignResult", "SpiceCampaign", "build_default_federation"]


def build_default_federation(obs: Optional[Obs] = None) -> FederatedGrid:
    """The paper's Fig. 5 federation: TeraGrid (NCSA/SDSC/PSC) + UK NGS.

    ``obs`` instruments the event loop and every batch queue (queue-wait
    histograms, per-site job counters — see :mod:`repro.obs`).
    """
    loop = EventLoop(obs=obs)
    return FederatedGrid(
        [
            Grid("TeraGrid", teragrid_sites(), loop, obs=obs),
            Grid("NGS", ngs_sites(), loop, obs=obs),
        ]
    )


@dataclass
class SpiceCampaignResult:
    """Everything the campaign produced."""

    structure: StructuralInsight
    interactive: InteractiveInsight
    batch: BatchPhaseResult

    @property
    def optimal_parameters(self) -> Tuple[float, float]:
        """The (kappa [pN/A], v [A/ns]) the study selects."""
        return self.batch.optimal

    @property
    def pmf(self):
        """The PMF estimate at the optimal parameters."""
        return self.batch.study.estimates[self.batch.optimal]

    def summary(self) -> dict:
        k, v = self.optimal_parameters
        return {
            "constriction_z": self.structure.constriction_z,
            "window": self.structure.suggested_window,
            "kappa_candidates": self.interactive.kappa_candidates,
            "felt_force_range": self.interactive.felt_force_range,
            "optimal_kappa_pn": k,
            "optimal_velocity": v,
            "n_jobs": len(self.batch.jobs),
            "campaign_cpu_hours": self.batch.campaign.total_cpu_hours,
            "campaign_days": self.batch.wall_clock_days,
        }


class SpiceCampaign:
    """Drives the full three-phase SPICE workflow.

    Parameters
    ----------
    federation:
        The grid-of-grids to run the batch phase on (defaults to the
        paper's Fig. 5 federation).
    replicas_per_cell:
        Batch sizing; the default gives the paper's 72 jobs
        (3 kappas x 4 velocities x 6 replicas), each one ~0.1-0.9 ns pull.
    seed:
        Master seed, any :data:`~repro.rng.SeedLike` (int, generator, seed
        sequence or ``None``), normalized via
        :func:`repro.rng.as_seed_int`; integer seeds reproduce the
        historical int-only behaviour bit-for-bit.  Every stochastic stage
        derives its own stream from the normalized base seed.
    obs:
        Optional instrumentation handle (see :mod:`repro.obs`).  Each
        phase runs inside a host-clock span; when the campaign builds its
        own default federation the handle also instruments the event loop
        and batch queues, so the run report carries queue-wait histograms
        and per-site utilization.  Pass an obs-instrumented federation
        explicitly to keep queue metrics with a custom grid.
    """

    def __init__(
        self,
        federation: Optional[FederatedGrid] = None,
        replicas_per_cell: int = 6,
        seed: SeedLike = 2005,
        obs: Optional[Obs] = None,
        store=None,
        dlq=None,
    ) -> None:
        self.obs = as_obs(obs)
        self.federation = (
            federation if federation is not None
            else build_default_federation(obs=obs)
        )
        self.replicas_per_cell = int(replicas_per_cell)
        self.seed = as_seed_int(seed)
        #: Optional :class:`~repro.store.ResultStore` for the batch phase:
        #: every (cell, replica) task is memoized, so an interrupted
        #: campaign re-run against the same store resumes bit-identically,
        #: recomputing only the missing tasks.
        self.store = store
        #: Optional :class:`~repro.resil.DeadLetterQueue`: terminal task
        #: failures are recorded durably and the campaign completes
        #: degraded instead of raising.
        self.dlq = dlq

    def run(self) -> SpiceCampaignResult:
        with self.obs.span("campaign.static-viz"):
            structure = StaticVizPhase().run()
        with self.obs.span("campaign.interactive"):
            interactive = InteractivePhase(seed=self.seed + 1, obs=self.obs).run()
        # The reduced-model window is expressed in the reduced coordinate
        # (displacement about the constriction); the batch phase pulls over
        # a window of the structural phase's suggested length.
        half = structure.window_length / 2.0
        with self.obs.span("campaign.batch"):
            batch = BatchPhase(
                federation=self.federation,
                kappas=interactive.kappa_candidates,
                velocities=interactive.velocity_candidates,
                replicas_per_cell=self.replicas_per_cell,
                window=(-half, half),
                seed=self.seed,
                obs=self.obs,
                store=self.store,
                dlq=self.dlq,
            ).run()
        return SpiceCampaignResult(
            structure=structure, interactive=interactive, batch=batch
        )
