"""Co-allocated interactive sessions — the SC05 demonstration, end to end.

The paper's hardest operational scenario (Sections II, V-C2/C3): an
interactive run needs a *compute reservation*, a *visualization host*, and a
*lightpath* between them, co-scheduled for the same window.  This module
chains the pieces the rest of the package provides:

1. co-allocate the compute reservation (per-grid human workflows) and the
   lightpath through :class:`~repro.grid.coscheduler.CoScheduler`;
2. if allocation succeeds, run the IMD closed loop over the network the
   allocation actually obtained — the lightpath when provisioned, the
   production internet otherwise (the degraded fallback the paper calls
   "not acceptable" but which demos sometimes had to accept);
3. account the full cost: coordination emails/hours, allocation outcome,
   and the interactivity (or waste) of the session itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..grid.coscheduler import CoAllocationResult, CoScheduler
from ..grid.reservation import ManualReservationWorkflow, ReservationRequest
from ..grid.scheduler import BatchQueue
from ..imd.metrics import InteractivityReport
from ..imd.session import IMDSession
from ..net.qos import LIGHTPATH, PRODUCTION_INTERNET, QoSSpec
from ..pore.assembly import build_translocation_simulation
from ..rng import SeedLike, as_generator, spawn

__all__ = ["InteractiveSessionOutcome", "InteractiveSessionRunner"]


@dataclass
class InteractiveSessionOutcome:
    """Everything one attempted interactive session produced."""

    allocation: CoAllocationResult
    network_used: Optional[str]
    imd: Optional[InteractivityReport]
    procs: int

    @property
    def ran(self) -> bool:
        return self.imd is not None

    @property
    def wasted_cpu_hours(self) -> float:
        """Stall waste on the allocation (0 if the session never ran)."""
        if self.imd is None:
            return 0.0
        return self.imd.wasted_cpu_hours(self.procs)


class InteractiveSessionRunner:
    """Attempts co-allocated interactive sessions against a set of queues.

    Parameters
    ----------
    queues:
        Batch queues by resource name (the compute side).
    workflows:
        Reservation workflow per resource (each grid's own bespoke process).
    lightpath_success_rate:
        Probability the lightpath can be provisioned when requested
        (UKLight maturity, Section V-C2).

    Every session asks for a lightpath; when its provisioning fails but
    compute can be reserved, the session runs anyway over the production
    internet.
    """

    #: Processors of every interactive allocation.
    PROCS = 256
    #: Frames each interactive session runs.
    FRAMES = 30

    def __init__(
        self,
        queues: Dict[str, BatchQueue],
        workflows: Dict[str, ManualReservationWorkflow],
        lightpath_success_rate: float = 0.7,
        seed: SeedLike = None,
    ) -> None:
        self.queues = dict(queues)
        rng = as_generator(seed)
        self._cosched_rng, self._imd_rng_root = spawn(rng, 2)
        self.coscheduler = CoScheduler(
            workflows, lightpath_success_rate=lightpath_success_rate,
            seed=self._cosched_rng,
        )
        self._session_counter = 0

    def attempt(
        self,
        compute_resource: str,
        start: float,
        duration: float,
    ) -> InteractiveSessionOutcome:
        """Try to co-allocate and run one interactive session."""
        if compute_resource not in self.queues:
            raise ConfigurationError(f"unknown resource {compute_resource!r}")
        request = ReservationRequest(start=start, duration=duration,
                                     procs=self.PROCS)
        allocation = self.coscheduler.co_allocate(
            {compute_resource: self.queues[compute_resource]},
            {compute_resource: request},
            need_lightpath=True,
        )

        network: Optional[str] = None
        qos: Optional[QoSSpec] = None
        if allocation.succeeded and allocation.lightpath_allocated:
            network, qos = "lightpath", LIGHTPATH
        elif not allocation.succeeded:
            # Compute may have been rolled back with the lightpath; a
            # production-internet fallback needs compute to stand, so retry
            # the compute-only allocation.
            retry = self.coscheduler.co_allocate(
                {compute_resource: self.queues[compute_resource]},
                {compute_resource: request},
                need_lightpath=False,
            )
            if retry.succeeded:
                allocation = CoAllocationResult(
                    succeeded=True,
                    reservations=retry.reservations,
                    outcomes={**allocation.outcomes, **retry.outcomes},
                    lightpath_allocated=False,
                    total_emails=allocation.total_emails + retry.total_emails,
                    total_human_hours=allocation.total_human_hours
                    + retry.total_human_hours,
                )
                network, qos = "production-internet", PRODUCTION_INTERNET

        imd = None
        if allocation.succeeded and qos is not None:
            imd = self._run_imd(qos)
        return InteractiveSessionOutcome(
            allocation=allocation,
            network_used=network,
            imd=imd,
            procs=self.PROCS,
        )

    def _run_imd(self, qos: QoSSpec) -> InteractivityReport:
        self._session_counter += 1
        seed = int(self._imd_rng_root.integers(0, 2**31))
        session = IMDSession(build_translocation_simulation(n_bases=6, seed=seed),
                             qos, seed=seed + 2, user_seed=seed + 1)
        return session.run(self.FRAMES)
