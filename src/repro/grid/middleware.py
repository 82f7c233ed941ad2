"""Grid middleware: the control-plane calls a campaign makes.

Paper Section V-B: grid-enablement means "interfacing the application codes
to suitable grid middleware through well defined user-level APIs", which
"has the extremely important advantage of hiding the heterogeneity of the
software stack and site-specific variability of the different resources
from the application".

:class:`GridMiddleware` is that interface as the chaos harness drives it:
a gatekeeper submit (resolving each site's local batch queue from
:data:`SITE_QUEUES`) and a GridFTP transfer, each retried against injected
control-plane fault windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, GridError
from ..obs import Obs
from ..resil.policy import DEFAULT_MIDDLEWARE_RETRY, RetryOutcome, retry_call

__all__ = ["SITE_QUEUES", "GridMiddleware", "MiddlewareFaultWindow"]


@dataclass(frozen=True)
class MiddlewareFaultWindow:
    """A control-plane fault at one site over a logical-time window.

    ``kind`` is ``"auth"`` (gatekeeper rejects credentials — the expired
    proxy / CRL mismatch class of 2005 grid failure) or ``"transfer"``
    (GridFTP connections fail).  Chaos-harness injection only.
    """

    site: str
    kind: str
    start_hours: float
    end_hours: float

    def __post_init__(self) -> None:
        if self.kind not in ("auth", "transfer"):
            raise ConfigurationError(
                f"unknown middleware fault kind {self.kind!r}")
        if self.end_hours <= self.start_hours:
            raise ConfigurationError("fault window must have positive duration")

    def active(self, t: float) -> bool:
        return self.start_hours <= t < self.end_hours


#: The local batch queue of each site's gatekeeper (plausible 2005 names).
SITE_QUEUES: Dict[str, str] = {
    "NCSA": "dque",
    "SDSC": "normal",
    "PSC": "batch",
    "NGS-Oxford": "workq",
    "NGS-Leeds": "parallel",
    "NGS-Manchester": "workq",
    "NGS-RAL": "long",
    "HPCx": "production",
}


class GridMiddleware:
    """The uniform adapter layer (GT2 + RealityGrid in the paper)."""

    def __init__(self) -> None:
        self._faults: List[MiddlewareFaultWindow] = []
        #: (operation, site, at_hours) control-plane call log.
        self.call_log: List[Tuple[str, str, float]] = []

    # -- control-plane faults (chaos harness hooks) ---------------------------

    def inject_fault(self, site: str, kind: str, start_hours: float,
                     duration_hours: float) -> MiddlewareFaultWindow:
        """Schedule a gatekeeper/GridFTP fault; returns the window."""
        self.queue_for(site)  # validate the site exists
        window = MiddlewareFaultWindow(site, kind, start_hours,
                                       start_hours + duration_hours)
        self._faults.append(window)
        return window

    def fault_active(self, site: str, kind: str, t: float) -> bool:
        return any(w.site == site and w.kind == kind and w.active(t)
                   for w in self._faults)

    # -- retried control-plane operations -------------------------------------

    def gatekeeper_submit(self, site: str, job_name: str, *,
                          now: float = 0.0, obs: Optional[Obs] = None,
                          ) -> RetryOutcome:
        """Submit a job description through the site gatekeeper.

        Retries under :data:`~repro.resil.DEFAULT_MIDDLEWARE_RETRY`
        against injected ``"auth"`` fault windows; raises
        :class:`~repro.errors.RetryExhausted` when the window outlasts the
        policy.  Time is logical hours, supplied by the caller.
        """
        queue = self.queue_for(site)

        def attempt(t: float) -> str:
            self.call_log.append(("gatekeeper", site, t))
            if self.fault_active(site, "auth", t):
                raise GridError(
                    f"{site} gatekeeper: authentication rejected "
                    f"(GSI proxy refused)"
                )
            return f"{job_name} accepted by {site} gatekeeper (queue={queue})"

        return retry_call(DEFAULT_MIDDLEWARE_RETRY, attempt,
                          operation=f"mw.gatekeeper.{site}", now=now,
                          obs=obs, retry_on=(GridError,))

    def gridftp_transfer(self, site: str, size_mb: float, *,
                         now: float = 0.0, obs: Optional[Obs] = None,
                         ) -> RetryOutcome:
        """Stage data to/from a site over GridFTP, with retries against
        injected ``"transfer"`` fault windows."""
        self.queue_for(site)
        if size_mb <= 0:
            raise ConfigurationError("transfer size must be positive")

        def attempt(t: float) -> str:
            self.call_log.append(("gridftp", site, t))
            if self.fault_active(site, "transfer", t):
                raise GridError(f"{site} GridFTP: connection refused")
            return f"{size_mb:g} MB staged to {site}"

        return retry_call(DEFAULT_MIDDLEWARE_RETRY, attempt,
                          operation=f"mw.gridftp.{site}", now=now,
                          obs=obs, retry_on=(GridError,))

    def queue_for(self, site: str) -> str:
        try:
            return SITE_QUEUES[site]
        except KeyError:
            raise GridError(f"middleware knows no site {site!r}") from None
