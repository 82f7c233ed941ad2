"""Retry policies: bounded, deterministic exponential backoff.

A :class:`RetryPolicy` is a frozen description of *how* to retry — attempt
cap, backoff base/factor/cap, optional seeded jitter — shared by every
retried operation in the package: the reliable channel's retransmission
timer, the campaign manager's job (re)placement, and the middleware's
gatekeeper/GridFTP calls.  The policy itself never draws random numbers;
jitter is applied only when the caller supplies a generator, so the
default (jitter = 0) configurations are bit-identical to the historical
hardcoded loops.

:func:`retry_call` is the generic driver for *logical-time* operations: it
invokes a callable with the attempt's timestamp, advances time by the
policy's backoff between failures, and either returns a typed
:class:`RetryOutcome` or raises :class:`~repro.errors.RetryExhausted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Optional, TypeVar

from ..errors import ConfigurationError, ReproError, RetryExhausted

__all__ = [
    "RetryPolicy",
    "RetryOutcome",
    "retry_call",
    "DEFAULT_CHANNEL_RETRY",
    "DEFAULT_PLACEMENT_RETRY",
    "DEFAULT_MIDDLEWARE_RETRY",
]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How an operation retries.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first; ``0`` means unbounded (the
        caller must guarantee eventual success some other way).
    base_delay:
        Backoff after the first failed attempt, in the caller's time unit
        (seconds for channels, hours for grid operations).
    factor:
        Multiplier applied per further failure (>= 1).
    max_delay:
        Optional cap on a single backoff interval.
    jitter:
        Fractional symmetric jitter: each backoff is scaled by
        ``1 + jitter * (2u - 1)`` with ``u ~ U[0, 1)`` — but only when the
        caller passes a generator, so un-jittered policies draw nothing.
    """

    max_attempts: int = 5
    base_delay: float = 1.0
    factor: float = 2.0
    max_delay: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ConfigurationError("max_attempts must be >= 0 (0 = unbounded)")
        if self.base_delay <= 0:
            raise ConfigurationError("base_delay must be positive")
        if self.factor < 1.0:
            raise ConfigurationError("backoff factor must be >= 1")
        if self.max_delay is not None and self.max_delay <= 0:
            raise ConfigurationError("max_delay must be positive")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError("jitter must be in [0, 1]")

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` completed tries have used up the policy."""
        return self.max_attempts > 0 and attempts >= self.max_attempts

    def backoff(self, attempt: int, *, base: Optional[float] = None,
                rng=None) -> float:
        """Delay after the ``attempt``-th failure (1-based).

        ``base`` overrides :attr:`base_delay` (the channel derives it from
        link latency at send time).  ``rng`` enables jitter; omitted, the
        schedule is the pure exponential ladder.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = (base if base is not None else self.base_delay) \
            * self.factor ** (attempt - 1)
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


@dataclass(frozen=True)
class RetryOutcome(Generic[T]):
    """Successful result of a retried operation.

    ``finished_at`` is in the caller's logical time unit; ``elapsed`` is
    the backoff time burnt before the successful attempt.
    """

    value: T
    attempts: int
    finished_at: float
    elapsed: float


def retry_call(
    policy: RetryPolicy,
    fn: Callable[[float], T],
    *,
    operation: str,
    now: float = 0.0,
    obs=None,
    retry_on: tuple = (ReproError,),
) -> RetryOutcome[T]:
    """Drive ``fn`` under ``policy`` in logical time.

    ``fn`` receives the attempt's timestamp (``now`` plus accumulated
    backoff) and either returns a value or raises one of ``retry_on``.
    On success the attempt count is recorded to the obs histogram
    ``resil.retry.attempts.<operation>``; on exhaustion the counter
    ``resil.retry.exhausted.<operation>`` is bumped and
    :class:`~repro.errors.RetryExhausted` raised.
    """
    attempts = 0
    t = now
    while True:
        attempts += 1
        try:
            value = fn(t)
        except retry_on as exc:
            if policy.exhausted(attempts):
                if obs is not None and obs.enabled:
                    obs.metrics.observe(
                        f"resil.retry.attempts.{operation}", attempts)
                    obs.metrics.inc(f"resil.retry.exhausted.{operation}")
                raise RetryExhausted(
                    f"{operation}: gave up after {attempts} attempts: {exc}",
                    operation=operation, attempts=attempts, last_error=exc,
                ) from exc
            t += policy.backoff(attempts)
            continue
        if obs is not None and obs.enabled:
            obs.metrics.observe(f"resil.retry.attempts.{operation}", attempts)
        return RetryOutcome(value=value, attempts=attempts,
                            finished_at=t, elapsed=t - now)


#: The reliable channel's historical behaviour: up to 64 transmission
#: attempts, RTO doubling per retry, no jitter (``base_delay`` is unused —
#: the channel derives the RTO from link latency at send time).
DEFAULT_CHANNEL_RETRY = RetryPolicy(max_attempts=64, base_delay=1e-4,
                                    factor=2.0)

#: Job placement: retried by the campaign manager's monitor cycle with an
#: hourly base, doubling to a day-long cap — generous enough to ride out a
#: multi-day outage without retrying forever.
DEFAULT_PLACEMENT_RETRY = RetryPolicy(max_attempts=12, base_delay=1.0,
                                      factor=2.0, max_delay=24.0)

#: Middleware control-plane calls (gatekeeper submit, GridFTP transfer):
#: minutes-scale backoff in hours, a handful of attempts.
DEFAULT_MIDDLEWARE_RETRY = RetryPolicy(max_attempts=6, base_delay=0.1,
                                       factor=2.0, max_delay=2.0)
