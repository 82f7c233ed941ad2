"""Federated-grid substrate: a discrete-event model of the US TeraGrid + UK
NGS grid-of-grids the paper ran on (Fig. 5), including batch scheduling,
advance reservations, co-scheduling, middleware heterogeneity, the cost
model and failure injection."""

from .des import EventLoop
from .jobs import Job, JobState, spice_batch_jobs
from .resources import ComputeResource, teragrid_sites, ngs_sites
from .scheduler import BatchQueue, Reservation
from .reservation import (
    ReservationRequest,
    ReservationOutcome,
    ManualReservationWorkflow,
    WebReservationWorkflow,
)
from .coscheduler import CoScheduler, CoAllocationResult
from .middleware import SITE_QUEUES, GridMiddleware, MiddlewareFaultWindow
from .costmodel import CostModel, PAPER_COST_MODEL
from .federation import Grid, FederatedGrid, CampaignManager, CampaignReport
from .failures import FailureInjector, SECURITY_BREACH_WEEKS
from .migration import CheckpointMigrator, paper_checkpoint_bytes
from .background import BackgroundWorkload

__all__ = [
    "EventLoop",
    "Job",
    "JobState",
    "spice_batch_jobs",
    "ComputeResource",
    "teragrid_sites",
    "ngs_sites",
    "BatchQueue",
    "Reservation",
    "ReservationRequest",
    "ReservationOutcome",
    "ManualReservationWorkflow",
    "WebReservationWorkflow",
    "CoScheduler",
    "CoAllocationResult",
    "SITE_QUEUES",
    "GridMiddleware",
    "MiddlewareFaultWindow",
    "CostModel",
    "PAPER_COST_MODEL",
    "Grid",
    "FederatedGrid",
    "CampaignManager",
    "CampaignReport",
    "FailureInjector",
    "SECURITY_BREACH_WEEKS",
    "CheckpointMigrator",
    "paper_checkpoint_bytes",
    "BackgroundWorkload",
]
