"""Campaign-as-a-service: an async HTTP/JSON API over the campaign layer.

The paper's computing environment is interactive and shared — many users
steering work against common pore models and common compute.  This package
is that surface for the reproduction: a multi-tenant HTTP service through
which clients submit study campaigns, watch their progress, and fetch
PMF results, all executed on the existing streaming executor against one
shared content-addressed result store (so identical physics is computed
once, no matter how many clients ask).

Layering (each module unit-testable without the one above it):

* :mod:`~repro.service.spec` — submitted JSON -> validated
  :class:`CampaignSpec`, whose fingerprint is the coalescing/caching key.
* :mod:`~repro.service.auth` — bearer tokens, roles, quotas, ownership.
* :mod:`~repro.service.state` — durable campaign records, the lifecycle
  state machine, event logs, spec-keyed results.
* :mod:`~repro.service.runner` — execution, submission coalescing,
  cancellation, DLQ retry, over the shared store.
* :mod:`~repro.service.api` — the sans-IO request handler core (routing,
  status codes, ETags, long-poll/streaming semantics).
* :mod:`~repro.service.http` — the asyncio socket front-end.
* :mod:`~repro.service.client` — a blocking urllib client (CLI, CI).

Entry points: ``repro serve`` starts a server; ``repro submit`` /
``repro status`` talk to one; ``docs/API.md`` is generated from a live
in-memory instance by ``tools/make_api_docs.py``.
"""

from typing import Any, Callable, TYPE_CHECKING

from .api import API_VERSION, Request, Response, ServiceApp

if TYPE_CHECKING:  # annotation-only; the handle stays an optional dep here
    from ..obs import Obs
from .auth import AuthRegistry, Principal, Quota, check_owner
from .client import ServiceClient, ServiceClientError
from .http import ServiceServer
from .runner import RESULT_SCHEMA, CampaignRunner
from .spec import SPEC_SCHEMA, CampaignSpec
from .state import (
    RECORD_SCHEMA,
    STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    CampaignRecord,
    ServiceState,
)

__all__ = [
    "API_VERSION",
    "SPEC_SCHEMA",
    "RECORD_SCHEMA",
    "RESULT_SCHEMA",
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "Request",
    "Response",
    "ServiceApp",
    "AuthRegistry",
    "Principal",
    "Quota",
    "check_owner",
    "ServiceClient",
    "ServiceClientError",
    "ServiceServer",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignRecord",
    "ServiceState",
    "build_service",
]


def build_service(store_root: str, *,
                  tokens_file: "str | None" = None,
                  obs: "Obs | None" = None,
                  inline: bool = False,
                  sync: bool = True,
                  task_fault: "Callable[[str, Any, int], None] | None" = None,
                  ) -> ServiceApp:
    """Wire a full service stack over one store root (the one-call setup).

    Creates/opens the :class:`~repro.store.ResultStore` at
    ``store_root``, the service state under its hidden ``.service/``
    entry, the shared DLQ, the runner and the app.  ``tokens_file`` is an
    :meth:`AuthRegistry.from_file` path; without it the fixed demo tokens
    are used (fine for a laptop, not for a deployment).  Returns the
    :class:`ServiceApp`; callers wanting sockets wrap it in a
    :class:`ServiceServer`.
    """
    import os

    from ..store import ResultStore

    store = ResultStore(store_root, obs, sync=sync)
    state = ServiceState(os.path.join(store.root, ".service"), sync=sync)
    registry = (AuthRegistry.from_file(tokens_file) if tokens_file
                else AuthRegistry.demo())
    runner = CampaignRunner(store, state, obs=obs, inline=inline,
                            task_fault=task_fault)
    return ServiceApp(runner, registry, obs=obs)
