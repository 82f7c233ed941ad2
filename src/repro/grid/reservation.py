"""Advance-reservation workflows: manual vs web interface.

Paper Section V-C3: "with advanced reservations made by hand, schedulers did
not work always and required last minute corrections and tweaking. The
current mode of operation is cumbersome, highly prone to error (one of the
authors had to exchange about a dozen emails correcting three distinct
errors introduced by two different administrators for one reservation
request)".  Section V-C5 then records the fix the collaboration pushed for:
"TeraGrid developed a web interface for advanced (cross-site) reservations
... it does remove the need for human intervention at one more level."

The two workflow classes model exactly that difference: every placement
passes through one or more *human layers*, each of which can introduce an
error (wrong time, wrong processor count, wrong machine); each error costs
an email round-trip to detect and another to fix.  The web interface removes
one human layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


from ..errors import ConfigurationError
from ..rng import SeedLike, as_generator
from .scheduler import BatchQueue, Reservation

__all__ = [
    "ReservationRequest",
    "ReservationOutcome",
    "ManualReservationWorkflow",
    "WebReservationWorkflow",
]

#: Error kinds a human layer can introduce (paper: "three distinct errors").
_ERROR_KINDS = ("wrong_start_time", "wrong_proc_count", "wrong_duration")


@dataclass(frozen=True)
class ReservationRequest:
    """What the scientist asked for."""

    start: float
    duration: float
    procs: int

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.procs <= 0:
            raise ConfigurationError("reservation request must be positive")


@dataclass
class ReservationOutcome:
    """The audit trail of getting one reservation placed correctly.

    Attributes
    ----------
    reservation:
        The finally-correct reservation (None if the workflow gave up).
    emails:
        Email round-trips spent (request + error reports + corrections).
    errors_introduced:
        Distinct administrator errors that had to be corrected.
    human_hours:
        Wall-clock coordination delay before the reservation was right.
    attempts:
        Placement attempts (1 + corrections).
    """

    reservation: Optional[Reservation]
    emails: int
    errors_introduced: List[str]
    human_hours: float
    attempts: int

    @property
    def succeeded(self) -> bool:
        return self.reservation is not None


class ManualReservationWorkflow:
    """Email-and-administrator reservation placement.

    Parameters
    ----------
    error_rate:
        Probability each human layer garbles the request per attempt.  The
        paper's anecdote (3 errors for one request across 2 admins) implies
        a high rate; the default 0.35 per layer reproduces its statistics.
    max_attempts:
        Give up after this many correction cycles (a real deadline).
    """

    #: Hand-offs between the scientist and the scheduler: local admin +
    #: remote admin.
    HUMAN_LAYERS = 2
    #: Coordination delay per email round-trip (hours).
    EMAIL_TURNAROUND_HOURS = 3.0

    def __init__(
        self,
        error_rate: float = 0.35,
        max_attempts: int = 10,
        seed: SeedLike = None,
    ) -> None:
        if not (0.0 <= error_rate < 1.0):
            raise ConfigurationError("error_rate must be in [0, 1)")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        self.error_rate = float(error_rate)
        self.max_attempts = int(max_attempts)
        self.rng = as_generator(seed)

    def place(self, queue: BatchQueue, request: ReservationRequest) -> ReservationOutcome:
        """Drive the request through the human layers until it is placed
        correctly (or attempts run out)."""
        emails = 1  # the initial request
        human_hours = self.EMAIL_TURNAROUND_HOURS
        errors: List[str] = []
        attempts = 0
        pending: Optional[Reservation] = None

        while attempts < self.max_attempts:
            attempts += 1
            # Each human layer may garble the request this attempt.
            introduced = [
                str(self.rng.choice(_ERROR_KINDS))
                for _ in range(self.HUMAN_LAYERS)
                if self.rng.random() < self.error_rate
            ]
            if pending is not None:
                # Remove the incorrect placement before retrying.
                try:
                    queue.cancel_reservation(pending.res_id)
                except Exception:
                    pass
                pending = None
            garbled = self._garble(request, introduced)
            try:
                pending = queue.reserve(garbled.start, garbled.duration, garbled.procs)
            except Exception:
                # An impossible (garbled) window: counts as an error to fix.
                introduced = introduced or ["wrong_start_time"]
                pending = None
            if not introduced and pending is not None:
                return ReservationOutcome(
                    reservation=pending,
                    emails=emails,
                    errors_introduced=errors,
                    human_hours=human_hours,
                    attempts=attempts,
                )
            # The scientist notices the mistake(s): one email to report,
            # one to confirm the fix, per distinct error.
            errors.extend(introduced)
            emails += 2 * max(len(introduced), 1)
            human_hours += 2 * self.EMAIL_TURNAROUND_HOURS * max(len(introduced), 1)

        if pending is not None:
            try:
                queue.cancel_reservation(pending.res_id)
            except Exception:
                pass
        return ReservationOutcome(
            reservation=None,
            emails=emails,
            errors_introduced=errors,
            human_hours=human_hours,
            attempts=attempts,
        )

    def _garble(self, request: ReservationRequest, introduced: List[str]) -> ReservationRequest:
        start, duration, procs = request.start, request.duration, request.procs
        for kind in introduced:
            if kind == "wrong_start_time":
                start = start + float(self.rng.choice([-2.0, 1.0, 6.0, 12.0]))
            elif kind == "wrong_proc_count":
                procs = max(int(procs * float(self.rng.choice([0.5, 2.0]))), 1)
            elif kind == "wrong_duration":
                duration = max(duration * float(self.rng.choice([0.5, 2.0])), 0.1)
        start = max(start, 0.0)
        return ReservationRequest(start=start, duration=duration, procs=procs)


class WebReservationWorkflow(ManualReservationWorkflow):
    """Reservation through the TeraGrid web interface (Section V-C5).

    "Although this does not completely automate the process, it does remove
    the need for human intervention at one more level": one fewer human
    layer, and corrections are immediate form-resubmissions rather than
    email round-trips.
    """

    HUMAN_LAYERS = 1
    EMAIL_TURNAROUND_HOURS = 0.25
