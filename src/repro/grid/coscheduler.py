"""Co-scheduling compute resources (and lightpaths) across grids.

The paper's hardest infrastructure problem (Sections V-C3/C6): interactive
runs need multiple resources *and* a lightpath allocated for the same time
window, every grid has its own reservation machinery ("a bespoke solution is
required for every different grid used"), and "the probability of success is
likely to decrease exponentially with every additional independent grid".

:class:`CoScheduler` implements a HARC-style two-phase commit over per-
resource reservation workflows: phase 1 places tentative reservations
everywhere; if any placement fails, everything placed so far is rolled back
(all-or-nothing).  Lightpath allocation is one more party to the
transaction, with its own success probability (Section V-C2's patchy
UKLight deployment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


from ..errors import ConfigurationError, CoSchedulingError
from ..rng import SeedLike, as_generator
from .reservation import (
    ManualReservationWorkflow,
    ReservationOutcome,
    ReservationRequest,
)
from .scheduler import BatchQueue, Reservation

__all__ = ["CoAllocationResult", "CoScheduler"]


@dataclass
class CoAllocationResult:
    """Outcome of one co-allocation transaction."""

    succeeded: bool
    reservations: Dict[str, Reservation]
    outcomes: Dict[str, ReservationOutcome]
    lightpath_allocated: bool
    total_emails: int
    total_human_hours: float
    rolled_back: bool = False


class CoScheduler:
    """All-or-nothing co-allocation over multiple batch queues.

    Parameters
    ----------
    workflows:
        Per-resource reservation workflow (``{resource_name: workflow}``);
        grids differ ("bespoke solution ... for every different grid").
    lightpath_success_rate:
        Probability a lightpath can be provisioned for the window when one
        is requested (UKLight maturity; 1.0 = always works).
    """

    def __init__(
        self,
        workflows: Dict[str, ManualReservationWorkflow],
        lightpath_success_rate: float = 0.7,
        seed: SeedLike = None,
    ) -> None:
        if not workflows:
            raise ConfigurationError("co-scheduler needs at least one workflow")
        if not (0.0 <= lightpath_success_rate <= 1.0):
            raise ConfigurationError("lightpath_success_rate must be in [0, 1]")
        self.workflows = dict(workflows)
        self.lightpath_success_rate = float(lightpath_success_rate)
        self.rng = as_generator(seed)

    def co_allocate(
        self,
        queues: Dict[str, BatchQueue],
        requests: Dict[str, ReservationRequest],
        need_lightpath: bool = False,
    ) -> CoAllocationResult:
        """Attempt a co-allocation across the named resources.

        Phase 1 places reservations one grid at a time (each through its own
        human workflow); phase 2 commits.  Any failure rolls back all placed
        reservations — partially-allocated interactive sessions are useless.
        """
        missing = set(requests) - set(queues)
        if missing:
            raise CoSchedulingError(f"no queue for resources: {sorted(missing)}")
        placed: Dict[str, Reservation] = {}
        outcomes: Dict[str, ReservationOutcome] = {}
        emails = 0
        hours = 0.0
        failed = False

        for name, request in sorted(requests.items()):
            workflow = self.workflows.get(name)
            if workflow is None:
                raise CoSchedulingError(f"no reservation workflow for {name!r}")
            outcome = workflow.place(queues[name], request)
            outcomes[name] = outcome
            emails += outcome.emails
            hours += outcome.human_hours
            if not outcome.succeeded:
                failed = True
                break
            placed[name] = outcome.reservation

        lightpath_ok = True
        if not failed and need_lightpath:
            lightpath_ok = bool(self.rng.random() < self.lightpath_success_rate)
            if not lightpath_ok:
                failed = True

        if failed:
            for name, res in placed.items():
                queues[name].cancel_reservation(res.res_id)
            return CoAllocationResult(
                succeeded=False,
                reservations={},
                outcomes=outcomes,
                lightpath_allocated=False,
                total_emails=emails,
                total_human_hours=hours,
                rolled_back=bool(placed),
            )
        return CoAllocationResult(
            succeeded=True,
            reservations=placed,
            outcomes=outcomes,
            lightpath_allocated=need_lightpath and lightpath_ok,
            total_emails=emails,
            total_human_hours=hours,
        )
