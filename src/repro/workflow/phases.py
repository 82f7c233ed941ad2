"""The three phases of the SPICE analysis pipeline (paper Section III).

1. **Static visualization** — "use 'static' visualization ... to understand
   the structural features of the pore": build the system, extract the
   geometry the later phases key off (constriction station, barrel radius).
2. **Interactive phase** — IMD + haptics "to develop a qualitative
   understanding of the forces and the DNA's response", which "helps in
   choosing the initial range of parameters over which we will try to find
   the optimal value".
3. **Batch phase** — the 72-simulation production run over the federated
   grid, yielding the work ensembles the SMD-JE analysis consumes.

Each phase is an object with a ``run()`` returning a typed result, so the
campaign driver (:mod:`repro.workflow.campaign`) reads like the paper's
method section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.optimizer import ParameterStudyResult, run_parameter_study
from ..errors import ConfigurationError
from ..grid import (
    CampaignManager,
    CampaignReport,
    FederatedGrid,
    Job,
    PAPER_COST_MODEL,
)
from ..imd import HapticDevice, IMDSession, ScriptedUser
from ..md import SteeringForce
from ..net import LIGHTPATH, QoSSpec
from ..obs import Obs, as_obs
from ..pore import (
    HemolysinPore,
    ReducedTranslocationModel,
    build_translocation_simulation,
    default_reduced_potential,
)
from ..rng import SeedLike, as_generator
from ..smd import PullingProtocol, parameter_grid

__all__ = [
    "StructuralInsight",
    "StaticVizPhase",
    "InteractiveInsight",
    "InteractivePhase",
    "BatchPhaseResult",
    "BatchPhase",
]


# --------------------------------------------------------------------------
# Phase 1: static visualization
# --------------------------------------------------------------------------


@dataclass
class StructuralInsight:
    """What the scientist learns from static visualization."""

    pore_summary: Dict[str, float]
    constriction_z: float
    suggested_window: Tuple[float, float]
    radius_profile: Tuple[np.ndarray, np.ndarray]

    @property
    def window_length(self) -> float:
        return self.suggested_window[1] - self.suggested_window[0]


class StaticVizPhase:
    """Builds the system and reads off the structure (paper Fig. 1)."""

    def __init__(self, pore: Optional[HemolysinPore] = None,
                 window_length: float = 10.0) -> None:
        if window_length <= 0:
            raise ConfigurationError("window_length must be positive")
        self.pore = pore if pore is not None else HemolysinPore()
        self.window_length = float(window_length)

    def run(self) -> StructuralInsight:
        summary = self.pore.describe()
        zc = summary["constriction_z"]
        # Paper Section IV-A: "we choose a sub-trajectory of length 10 A
        # close to the centre of the pore" — centre the window on the
        # constriction, the pore's functional midpoint.
        window = (zc - 0.5 * self.window_length, zc + 0.5 * self.window_length)
        return StructuralInsight(
            pore_summary=summary,
            constriction_z=zc,
            suggested_window=window,
            radius_profile=self.pore.geometry.radius_profile(201),
        )


# --------------------------------------------------------------------------
# Phase 2: interactive priming
# --------------------------------------------------------------------------


@dataclass
class InteractiveInsight:
    """Parameter ranges distilled from the interactive/haptic sessions."""

    felt_force_range: Tuple[float, float]
    kappa_candidates: Tuple[float, ...]
    velocity_candidates: Tuple[float, ...]
    interactivity_slowdown: float
    frames: int


class InteractivePhase:
    """IMD + haptic probing to bracket the (kappa, v) search space.

    Candidate spring constants come from the thermal-width criterion the
    paper's Section IV-B reasons with: the trap's equilibrium spread
    ``sqrt(kT / kappa)`` must resolve angstrom-scale features (width below
    a few A) without drowning the signal in spring noise (width above
    ~0.1 A).  Decades satisfying that bracket are exactly the paper's
    {10, 100, 1000} pN/A.  The haptic force range sets the magnitude of
    the "suitable constraints" (restraint forces), reported alongside.
    """

    #: Thermal-width bracket (A) a useful spring must fall in.
    WIDTH_BRACKET = (0.1, 3.0)

    def __init__(
        self,
        qos: QoSSpec = LIGHTPATH,
        n_frames: int = 40,
        n_bases: int = 8,
        seed: SeedLike = None,
        obs: Optional[Obs] = None,
    ) -> None:
        if n_frames <= 0:
            raise ConfigurationError("n_frames must be positive")
        self.qos = qos
        self.n_frames = int(n_frames)
        self.n_bases = int(n_bases)
        self.seed = seed
        self.obs = as_obs(obs)

    def run(self) -> InteractiveInsight:
        rng = as_generator(self.seed)
        ts = build_translocation_simulation(n_bases=self.n_bases, seed=rng)
        steer = SteeringForce(ts.simulation.system.n)
        ts.simulation.forces.append(steer)
        device = HapticDevice()
        user = ScriptedUser(device, target_z=-20.0, gain=0.5, seed=rng)
        session = IMDSession(
            ts.simulation, steer, ts.dna_indices, self.qos, user=user,
            steps_per_frame=25, seed=rng, obs=self.obs,
        )
        report = session.run(self.n_frames)
        f_lo, f_hi = device.felt_force_range()

        from ..units import kT, pn_per_angstrom

        w_lo, w_hi = self.WIDTH_BRACKET
        decades = [10.0**e for e in range(0, 6)]
        kappas = tuple(
            k for k in decades
            if w_lo <= (kT() / pn_per_angstrom(k)) ** 0.5 <= w_hi
        ) or (10.0, 100.0, 1000.0)

        # Velocities: fast enough that a 10 A window costs << 1 ns of MD,
        # slow enough that the strand visibly relaxes between frames in the
        # interactive run — the paper lands on 12.5-100 A/ns.
        velocities = (12.5, 25.0, 50.0, 100.0)
        return InteractiveInsight(
            felt_force_range=(f_lo, f_hi),
            kappa_candidates=kappas,
            velocity_candidates=velocities,
            interactivity_slowdown=report.slowdown,
            frames=report.n_frames,
        )


# --------------------------------------------------------------------------
# Phase 3: batch production
# --------------------------------------------------------------------------


@dataclass
class BatchPhaseResult:
    """Physics + infrastructure outcome of the production run."""

    study: ParameterStudyResult
    campaign: CampaignReport
    jobs: List[Job]

    @property
    def optimal(self) -> Tuple[float, float]:
        return self.study.optimal

    @property
    def wall_clock_days(self) -> float:
        return self.campaign.makespan_hours / 24.0


class BatchPhase:
    """Runs the (kappa, v) grid study *and* its grid campaign.

    The physics (reduced-model pulling ensembles) and the infrastructure
    (the corresponding 128/256-processor jobs scheduled over the
    federation) are driven from the same protocol list, so CPU-hour
    accounting is consistent between them.
    """

    def __init__(
        self,
        federation: FederatedGrid,
        model: Optional[ReducedTranslocationModel] = None,
        kappas: Sequence[float] = (10.0, 100.0, 1000.0),
        velocities: Sequence[float] = (12.5, 25.0, 50.0, 100.0),
        replicas_per_cell: int = 6,
        samples_per_replica: int = 1,
        window: Tuple[float, float] = (-5.0, 5.0),
        steering_required: bool = True,
        seed: int = 2005,
        obs: Optional[Obs] = None,
        resil=None,
        store=None,
        skip_completed: bool = False,
        dlq=None,
        retry=None,
        stealing=None,
    ) -> None:
        if replicas_per_cell <= 0 or samples_per_replica <= 0:
            raise ConfigurationError("replicas and samples must be positive")
        if replicas_per_cell * samples_per_replica < 2:
            raise ConfigurationError(
                "need at least 2 pulls per cell for the error analysis"
            )
        if skip_completed and store is None:
            raise ConfigurationError("skip_completed requires a result store")
        self.federation = federation
        self.model = model if model is not None else ReducedTranslocationModel(
            default_reduced_potential()
        )
        self.kappas = tuple(kappas)
        self.velocities = tuple(velocities)
        self.replicas_per_cell = int(replicas_per_cell)
        self.samples_per_replica = int(samples_per_replica)
        self.window = window
        self.steering_required = bool(steering_required)
        self.seed = int(seed)
        self.obs = as_obs(obs)
        #: Optional :class:`~repro.resil.Resilience` bundle handed to the
        #: campaign manager (duck-typed: workflow never imports repro.resil).
        self.resil = resil
        #: Optional :class:`~repro.store.ResultStore`; the study memoizes
        #: every (cell, replica) task in it, which is what makes a killed
        #: batch phase resumable.
        self.store = store
        #: With a store: mark grid jobs whose task records already exist as
        #: completed without scheduling them (the resumed campaign's grid
        #: view).  Off by default — the default resume replays the cheap
        #: DES schedule so the campaign report stays bit-identical.
        self.skip_completed = bool(skip_completed)
        #: Optional :class:`~repro.resil.DeadLetterQueue` (duck-typed).
        #: With one attached, permanently-failing study tasks and
        #: unplaceable grid jobs land in it and the campaign *completes
        #: degraded* instead of raising.
        self.dlq = dlq
        #: Optional :class:`~repro.resil.RetryPolicy` for the study's tasks
        #: (attempt budget only; exhaustion dead-letters).
        self.retry = retry
        #: Optional :class:`~repro.grid.WorkStealer` (opt-in; attached to
        #: the campaign manager for the scheduling run).
        self.stealing = stealing

    @property
    def n_jobs(self) -> int:
        """Total batch jobs (the paper's 72 = 12 cells x 6 replicas)."""
        return len(self.kappas) * len(self.velocities) * self.replicas_per_cell

    def build_jobs(self, protocols: Sequence[PullingProtocol]) -> List[Job]:
        """One grid job per (cell, replica): a supercomputing-class MD run."""
        jobs: List[Job] = []
        for proto in protocols:
            sim_ns = (proto.duration_ns + proto.equilibration_ns) * self.samples_per_replica
            for rep in range(self.replicas_per_cell):
                procs = 128 if rep % 2 == 0 else 256
                jobs.append(
                    Job(
                        name=f"smdje-k{proto.kappa_pn:g}-v{proto.velocity:g}-r{rep}",
                        procs=procs,
                        duration_hours=PAPER_COST_MODEL.cpu_hours_per_ns() * sim_ns / procs,
                        steering_required=self.steering_required,
                    )
                )
        return jobs

    def job_task_fingerprints(
        self, protocols: Sequence[PullingProtocol]
    ) -> List[Tuple[str, str]]:
        """``(job name, store fingerprint)`` for every (cell, replica) unit.

        The grid job ``smdje-k{kappa:g}-v{v:g}-r{rep}`` performs exactly
        the study's (cell, replica) work task — same protocol, same
        ``stream_for`` seed key — so job completion can be read straight
        off the result store.
        """
        from .streaming import stream_study_tasks

        tasks = stream_study_tasks(
            self.model, protocols, self.replicas_per_cell,
            self.samples_per_replica, seed=self.seed)
        return [(job.name, task.fingerprint)
                for job, task in zip(self.build_jobs(protocols), tasks)]

    def run(self) -> BatchPhaseResult:
        start = self.window[0]
        distance = self.window[1] - self.window[0]
        if distance <= 0:
            raise ConfigurationError("window must have positive length")
        protocols = parameter_grid(
            kappas=self.kappas,
            velocities=self.velocities,
            distance=distance,
            start_z=start,
        )
        # Which grid jobs are already satisfied by store records?  Decided
        # *before* the study runs (the study itself fills the store).
        completed = None
        if self.store is not None and self.skip_completed:
            completed = [name for name, fp
                         in self.job_task_fingerprints(protocols)
                         if fp in self.store]
        # Physics: each cell decomposes into replicas_per_cell restartable
        # tasks of samples_per_replica pulls — the same (cell, replica)
        # granularity as the grid jobs, so with a store every job's work
        # unit is individually memoized and a killed phase resumes.
        study = run_parameter_study(
            self.model,
            protocols=protocols,
            n_samples=self.replicas_per_cell * self.samples_per_replica,
            seed=self.seed,
            obs=self.obs,
            store=self.store,
            samples_per_task=self.samples_per_replica,
            dlq=self.dlq,
            retry=self.retry,
        )
        # Infrastructure: schedule the corresponding jobs on the federation.
        jobs = self.build_jobs(protocols)
        manager = CampaignManager(self.federation, obs=self.obs,
                                  resil=self.resil, stealing=self.stealing,
                                  dlq=self.dlq)
        campaign = manager.run(
            jobs, completed=completed,
            job_fingerprints=dict(self.job_task_fingerprints(protocols)))
        return BatchPhaseResult(study=study, campaign=campaign, jobs=jobs)
