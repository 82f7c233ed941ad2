"""Exception hierarchy for the SPICE reproduction package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch package errors without masking programming mistakes (``TypeError``,
``ValueError`` from NumPy, etc. still propagate).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SteeringError",
    "NetworkError",
    "RetryExhausted",
    "UnreachableHostError",
    "GridError",
    "SchedulingError",
    "ReservationError",
    "CoSchedulingError",
    "CheckpointError",
    "AnalysisError",
    "LintError",
    "SanitizeError",
    "StoreError",
    "StoreCorruptionError",
    "CampaignInterrupted",
    "ServiceError",
    "SpecError",
    "AuthenticationError",
    "AccessDeniedError",
    "QuotaExceededError",
    "LifecycleError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The MD engine or a reduced model entered an invalid state
    (non-finite coordinates, broken topology, exploding integration)."""


class SteeringError(ReproError):
    """Steering-framework protocol violation (unknown parameter, message to
    an unattached component, malformed control message)."""


class NetworkError(ReproError):
    """Simulated network failure (channel closed, transport exhausted)."""


class RetryExhausted(NetworkError):
    """A retried operation ran out of attempts (or budget).

    The typed outcome of a :class:`~repro.resil.RetryPolicy` giving up:
    carries the operation label, how many attempts were made, and the last
    underlying error.  Subclasses :class:`NetworkError` because transport
    exhaustion is the archetypal case (and the historical exception type
    the reliable channel raised); gatekeeper/GridFTP calls are network
    operations too.
    """

    def __init__(self, message: str, *, operation: str = "",
                 attempts: int = 0, last_error: "Exception | None" = None) -> None:
        super().__init__(message)
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error


class UnreachableHostError(NetworkError):
    """A connection was attempted to a hidden-IP host with no gateway route.

    This models the "hidden IP address" problem of Section V-C1 of the paper.
    """


class GridError(ReproError):
    """Base class for grid-substrate errors."""


class SchedulingError(GridError):
    """A job could not be scheduled (too large for any resource, queue
    closed, malformed request)."""


class ReservationError(GridError):
    """An advance reservation could not be placed or was irrecoverably
    mis-configured by the (simulated) administrators."""


class CoSchedulingError(GridError):
    """Co-allocation across resources/grids failed (Section V-C3/C6)."""


class CheckpointError(ReproError):
    """Checkpoint serialization/restore failure, or invalid checkpoint-tree
    operation (e.g. cloning a node that was never committed)."""


class AnalysisError(ReproError):
    """Analysis-layer failure (incompatible grids, empty ensembles)."""


class StoreError(ReproError):
    """Result-store failure that is not data corruption: an unusable store
    directory, an unfingerprintable task (a model with no
    ``fingerprint_data()``; on the 3-D runner, a bare generator seed whose
    stream key was not given), or a fingerprint/serialization request over
    values the canonical form cannot represent (NaN, non-string keys)."""


class StoreCorruptionError(StoreError):
    """A persisted result record failed validation on read (truncated JSON,
    wrong schema tag, fingerprint mismatch, malformed payload).  The store
    catches this internally to evict the record; it only propagates when a
    record is read directly via :meth:`repro.store.ResultStore.read_record`."""


class CampaignInterrupted(ReproError):
    """A campaign was killed mid-flight (the chaos harness's process-death
    fault).  Completed result records survive in the store; re-running the
    same campaign against the same store resumes from them."""


class PermanentTaskFailure(ReproError):
    """A task failed in a way no retry can fix (the chaos harness's
    ``permafail`` fault, or a compute function that deems its own input
    unrunnable).  The streaming runner and campaign manager do not burn
    the retry budget on it: the task goes straight to the dead-letter
    queue and the campaign completes degraded."""


class ServiceError(ReproError):
    """Base class for campaign-service failures (:mod:`repro.service`).

    Subclasses map 1:1 onto the API's client-error responses, so the HTTP
    layer never switches on strings: :class:`SpecError` -> 400,
    :class:`AuthenticationError` -> 401, :class:`AccessDeniedError` -> 403,
    :class:`QuotaExceededError` -> 429, :class:`LifecycleError` -> 409.
    """


class SpecError(ServiceError):
    """A submitted campaign spec failed validation (unknown field, wrong
    type, out-of-range sizing, non-divisible task decomposition)."""


class AuthenticationError(ServiceError):
    """The request carried no credential, or one the token registry does
    not know.  Maps to HTTP 401."""


class AccessDeniedError(ServiceError):
    """An authenticated principal attempted an action its role or access
    policy forbids (a viewer submitting, a non-owner cancelling).  Maps to
    HTTP 403."""


class QuotaExceededError(ServiceError):
    """A submission would exceed the principal's quota (active campaigns,
    tasks per campaign).  Maps to HTTP 429."""


class LifecycleError(ServiceError):
    """An operation is invalid for the campaign's current lifecycle state
    (fetching the result of a still-running campaign, cancelling a
    completed one, an illegal state-machine transition).  Maps to 409."""


class LintError(ReproError):
    """Static-analysis failure that is not a lint *finding*: an unknown
    rule id or selector, an unreadable lint path, a malformed baseline
    file, or a lint report that does not validate against its schema.
    (Findings themselves are data — :class:`repro.lint.Violation` — and
    set the exit code instead of raising.)"""


class SanitizeError(ReproError):
    """Runtime concurrency-sanitizer failure that is not a *finding*: a
    release of a lock the calling thread never acquired, or a sanitize
    report that does not validate against ``repro.sanitize.report/v1``.
    (Findings — inversions, long holds — are data in the report.)"""
