"""Fault tolerance for the federated campaign (``repro.resil``).

Four pieces, threaded through grid, net and workflow:

* :class:`RetryPolicy` / :func:`retry_call` — bounded exponential backoff
  with optional seeded jitter, shared by the
  reliable channel, job placement and the middleware control plane;
* :class:`HeartbeatFailureDetector` — deterministic, event-loop-driven
  suspect/confirm failure detection that replaces the campaign manager's
  oracle ``queue.down`` reads;
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-queue
  closed/open/half-open breakers consulted during placement;
* the chaos harness (:class:`ChaosScenario`, :func:`run_chaos_scenario`)
  — named fault scenarios (site outages, security breaches, grid
  partitions, link faults, middleware faults) with resilience metrics via
  the ``obs=`` handle.

The chaos module imports the grid/net layers, so it is loaded lazily —
``repro.resil`` itself stays a leaf dependency those layers can import.
"""

from .breaker import BreakerBoard, BreakerState, CircuitBreaker
from .core import GridPartition, Resilience
from .detector import HeartbeatFailureDetector, SiteHealth
from .dlq import DLQ_SCHEMA, DeadLetterQueue, store_dlq_path
from .policy import (
    DEFAULT_CHANNEL_RETRY,
    DEFAULT_MIDDLEWARE_RETRY,
    DEFAULT_PLACEMENT_RETRY,
    RetryOutcome,
    RetryPolicy,
    retry_call,
)

__all__ = [
    "RetryPolicy",
    "RetryOutcome",
    "retry_call",
    "DEFAULT_CHANNEL_RETRY",
    "DEFAULT_MIDDLEWARE_RETRY",
    "DEFAULT_PLACEMENT_RETRY",
    "SiteHealth",
    "HeartbeatFailureDetector",
    "BreakerState",
    "CircuitBreaker",
    "BreakerBoard",
    "GridPartition",
    "Resilience",
    "DLQ_SCHEMA",
    "DeadLetterQueue",
    "store_dlq_path",
    # Lazily loaded from .chaos (avoids a grid/net import cycle):
    "ChaosScenario",
    "SiteFault",
    "PartitionFault",
    "LinkFault",
    "MiddlewareFault",
    "RandomOutages",
    "PermafailFault",
    "SCENARIOS",
    "run_chaos_scenario",
    "render_chaos_report",
]

_CHAOS_NAMES = {
    "ChaosScenario", "SiteFault", "PartitionFault", "LinkFault",
    "MiddlewareFault", "RandomOutages", "PermafailFault", "SCENARIOS",
    "run_chaos_scenario", "render_chaos_report",
}


def __getattr__(name):
    if name in _CHAOS_NAMES:
        from . import chaos
        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
