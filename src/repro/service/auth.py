"""Token authentication, roles, quotas and access policies.

The model is deliberately small — bearer tokens mapped to principals, three
ordered roles, and per-user quotas — but the *enforcement points* mirror a
real multi-tenant service (modelled on DIRACx's router auth + access
policies):

* **Authentication** (:meth:`AuthRegistry.authenticate`): every request
  except the health probe must carry ``Authorization: Bearer <token>``;
  unknown or missing credentials raise
  :class:`~repro.errors.AuthenticationError` (HTTP 401).
* **Role policy** (:meth:`Principal.require_role`): ``viewer`` may only
  read, ``operator`` may additionally submit/cancel/retry, ``admin`` may
  act on any campaign.  Violations raise
  :class:`~repro.errors.AccessDeniedError` (HTTP 403).
* **Ownership policy** (:func:`check_owner`): non-admin principals see and
  control only their own campaigns; a foreign campaign id behaves exactly
  like a nonexistent one (404, no existence leak).
* **Quotas** (:class:`Quota`, checked at submission): active-campaign and
  task-count ceilings per principal, raising
  :class:`~repro.errors.QuotaExceededError` (HTTP 429).  The shared
  result store is *not* quota'd — a cache hit costs the service nothing,
  which is the whole point of content-addressed cross-tenant caching.

Nothing here reads the wall clock or draws randomness: tokens are opaque
strings supplied by configuration, so the service layer stays as
deterministic as the physics beneath it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import (
    AccessDeniedError,
    AuthenticationError,
    ConfigurationError,
)

__all__ = ["ROLES", "Quota", "Principal", "AuthRegistry", "check_owner"]

#: Role names in increasing privilege order; each role includes every
#: capability of the roles before it.
ROLES = ("viewer", "operator", "admin")


@dataclass(frozen=True)
class Quota:
    """Per-principal resource ceilings, checked at submission time.

    Attributes
    ----------
    max_active_campaigns:
        Campaigns this principal may hold in a non-terminal state
        (pending/running) at once; a coalesced submission counts — it is
        a live resource even though it costs no compute.
    max_tasks_per_campaign:
        Upper bound on one spec's store-task decomposition
        (:attr:`~repro.service.spec.CampaignSpec.n_tasks`).
    """

    max_active_campaigns: int = 4
    max_tasks_per_campaign: int = 10_000

    def __post_init__(self) -> None:
        if self.max_active_campaigns < 1 or self.max_tasks_per_campaign < 1:
            raise ConfigurationError("quota ceilings must be >= 1")


@dataclass(frozen=True)
class Principal:
    """An authenticated identity: user name, role, and quota."""

    user: str
    role: str = "operator"
    quota: Quota = field(default_factory=Quota)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConfigurationError(
                f"unknown role {self.role!r}; expected one of {ROLES}")

    @property
    def is_admin(self) -> bool:
        return self.role == "admin"

    def has_role(self, role: str) -> bool:
        """True when this principal's role grants ``role``'s capability."""
        return ROLES.index(self.role) >= ROLES.index(role)

    def require_role(self, role: str) -> None:
        """Raise :class:`~repro.errors.AccessDeniedError` unless
        :meth:`has_role` holds — the API layer's 403."""
        if not self.has_role(role):
            raise AccessDeniedError(
                f"role {self.role!r} may not perform an action requiring "
                f"{role!r}")


class AuthRegistry:
    """Token -> :class:`Principal` lookup.

    Parameters
    ----------
    tokens:
        Mapping of opaque bearer-token strings to principals.  Tokens are
        configuration, not secrets management — rotating them is editing
        the tokens file and restarting the service.
    """

    def __init__(self, tokens: Dict[str, Principal]) -> None:
        if not tokens:
            raise ConfigurationError("auth registry needs at least one token")
        self._tokens = dict(tokens)

    def authenticate(self, authorization: Optional[str]) -> Principal:
        """Resolve an ``Authorization`` header value to a principal.

        Raises :class:`~repro.errors.AuthenticationError` (the API's 401)
        when the header is absent, malformed, or names an unknown token.
        The error message never echoes the presented token.
        """
        if not authorization:
            raise AuthenticationError("missing Authorization header")
        parts = authorization.split(None, 1)
        if len(parts) != 2 or parts[0].lower() != "bearer" or not parts[1]:
            raise AuthenticationError(
                "malformed Authorization header; expected 'Bearer <token>'")
        principal = self._tokens.get(parts[1].strip())
        if principal is None:
            raise AuthenticationError("unknown token")
        return principal

    # -- construction ----------------------------------------------------------

    @classmethod
    def demo(cls) -> "AuthRegistry":
        """Fixed demo tokens for quickstarts, docs and smoke tests.

        Three principals, one per role.  The tokens are public by design —
        any deployment beyond a laptop must supply its own tokens file.
        """
        return cls({
            "spice-admin-token": Principal("root", "admin"),
            "spice-operator-token": Principal("ada", "operator"),
            "spice-viewer-token": Principal("vis", "viewer"),
        })

    @classmethod
    def from_file(cls, path: str) -> "AuthRegistry":
        """Load a tokens file.

        Format::

            {"tokens": {"<token>": {"user": "ada", "role": "operator",
                                    "quota": {"max_active_campaigns": 4,
                                              "max_tasks_per_campaign": 10000}}}}

        ``role`` defaults to ``operator`` and ``quota`` fields to the
        :class:`Quota` defaults.  Malformed files raise
        :class:`~repro.errors.ConfigurationError` at startup — never at
        request time.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot load tokens file {path!r}: {exc}")
        tokens_doc = doc.get("tokens") if isinstance(doc, dict) else None
        if not isinstance(tokens_doc, dict) or not tokens_doc:
            raise ConfigurationError(
                f"tokens file {path!r} must hold a non-empty 'tokens' object")
        tokens: Dict[str, Principal] = {}
        for token, entry in tokens_doc.items():
            if not isinstance(entry, dict) or "user" not in entry:
                raise ConfigurationError(
                    f"token entry for {token[:8]!r}... must be an object "
                    f"with at least a 'user' field")
            quota_doc: Any = entry.get("quota", {})
            if not isinstance(quota_doc, dict):
                raise ConfigurationError("token 'quota' must be an object")
            tokens[token] = Principal(
                user=str(entry["user"]),
                role=str(entry.get("role", "operator")),
                quota=Quota(**quota_doc),
            )
        return cls(tokens)


def check_owner(principal: Principal, owner: str) -> bool:
    """Ownership policy: may ``principal`` see/control a campaign owned by
    ``owner``?  Admins see everything; everyone else only their own.

    Returns a bool rather than raising so the API layer can turn a
    foreign campaign into a 404 (indistinguishable from nonexistent)
    instead of a 403 that leaks existence.
    """
    return principal.is_admin or principal.user == owner
