"""The service's job-state layer: durable campaign records + lifecycle.

Every submitted campaign gets a :class:`CampaignRecord` persisted as one
atomic JSON document, plus an append-only event log, under a state root
that conventionally lives *next to the shared result store* (the hidden
``<store>/.service/`` entry, invisible to the store's own scans)::

    <state-root>/
      campaigns/c-000001.json        # record: spec, owner, lifecycle
      events/c-000001.jsonl          # append-only progress/lifecycle events
      results/<spec_fp>.json         # result documents, keyed by SPEC

Three properties the tests pin down:

* **Lifecycle is a state machine**, not a string field: transitions are
  validated against :data:`TRANSITIONS` and recorded (with a monotonic
  per-campaign sequence number) in the record itself, so an illegal jump —
  completing a cancelled campaign, cancelling a completed one — raises
  :class:`~repro.errors.LifecycleError` instead of silently rewriting
  history.
* **Durability discipline matches the store**: records are replaced via
  write-tmp → fsync → ``os.replace`` (a crash leaves the old record, never
  a torn one); events are fsync'd appends whose reader tolerates a torn
  final line.
* **Results are content-keyed by spec fingerprint**, not campaign id:
  coalesced campaigns share one result document the same way they share
  store records, and a later identical submission is served from it
  without recomputation.

No wall-clock timestamps are persisted anywhere — ordering is carried by
sequence numbers — so state documents (and the API payloads built from
them) are bit-identical across same-seed runs, which is what lets
``docs/API.md`` be a *generated* artifact that CI can diff.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import LifecycleError, ServiceError
from ..sanitize import make_rlock
from ..store.index import (
    append_line,
    atomic_write_text,
    read_complete_lines,
)

__all__ = [
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "RECORD_SCHEMA",
    "CampaignRecord",
    "ServiceState",
]

RECORD_SCHEMA = "repro.service.campaign/v1"

#: Campaign lifecycle states.
STATES = ("pending", "running", "completed", "degraded", "failed",
          "cancelled")

#: States with no outgoing edges (except ``degraded``, whose dead-lettered
#: tasks may be requeued and re-run).
TERMINAL_STATES = frozenset({"completed", "degraded", "failed", "cancelled"})

#: The legal lifecycle edges.  ``pending -> completed/degraded/failed``
#: covers coalesced submissions attaching to an already-terminal primary
#: (a cache hit never passes through ``running``); ``degraded -> running``
#: is the DLQ retry path.
TRANSITIONS: Dict[str, frozenset] = {
    "pending": frozenset({"running", "cancelled", "completed", "degraded",
                          "failed"}),
    "running": frozenset({"completed", "degraded", "failed", "cancelled"}),
    "completed": frozenset(),
    "degraded": frozenset({"running"}),
    "failed": frozenset(),
    "cancelled": frozenset(),
}


@dataclass
class CampaignRecord:
    """One campaign's durable state.

    Attributes
    ----------
    id:
        Service-assigned identifier (``c-000001``...), allocated in
        submission order and stable across restarts.
    user:
        Owning principal's user name (the ownership-policy subject).
    spec:
        The normalized spec document (see :mod:`repro.service.spec`).
    spec_fingerprint:
        The spec's SHA-256 — coalescing key and result-document key.
    state:
        Current lifecycle state (one of :data:`STATES`).
    seq:
        Monotonic transition counter; the latest transition's sequence.
    coalesced_with:
        Primary campaign id when this submission was deduplicated onto an
        identical in-flight or completed campaign; ``None`` for primaries.
    transitions:
        Full lifecycle history: ``{"seq", "from", "to", "detail"}`` dicts.
    result_digest:
        The result document's content digest once terminal-with-result
        (doubles as the HTTP ETag); ``None`` before completion.
    error:
        Terminal failure description for ``failed`` campaigns.
    """

    id: str
    user: str
    spec: Dict[str, Any]
    spec_fingerprint: str
    state: str = "pending"
    seq: int = 0
    coalesced_with: Optional[str] = None
    transitions: List[Dict[str, Any]] = field(default_factory=list)
    result_digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        """True once the campaign reached a state with no successor (the
        ``degraded`` retry edge notwithstanding)."""
        return self.state in TERMINAL_STATES

    def as_dict(self) -> Dict[str, Any]:
        """JSON document form (also the API's campaign resource body)."""
        return {
            "schema": RECORD_SCHEMA,
            "id": self.id,
            "user": self.user,
            "spec": self.spec,
            "spec_fingerprint": self.spec_fingerprint,
            "state": self.state,
            "seq": self.seq,
            "coalesced_with": self.coalesced_with,
            "transitions": self.transitions,
            "result_digest": self.result_digest,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "CampaignRecord":
        """Rebuild a record from its persisted document."""
        if doc.get("schema") != RECORD_SCHEMA:
            raise ServiceError(
                f"campaign record carries schema {doc.get('schema')!r}; "
                f"expected {RECORD_SCHEMA}")
        return cls(
            id=doc["id"], user=doc["user"], spec=doc["spec"],
            spec_fingerprint=doc["spec_fingerprint"], state=doc["state"],
            seq=doc["seq"], coalesced_with=doc.get("coalesced_with"),
            transitions=list(doc.get("transitions", [])),
            result_digest=doc.get("result_digest"),
            error=doc.get("error"),
        )


class ServiceState:
    """Durable campaign records, events and results under one root.

    Thread-safe: all mutation happens under one lock, so the runner's
    worker thread and the API's request handlers can share an instance.
    Construction scans existing records (service restart) and continues
    the id sequence.

    Parameters
    ----------
    root:
        State directory, created if missing.  Convention:
        ``<store-root>/.service`` — hidden, so the result store's
        foreign-directory refusal and shard scans never see it.
    sync:
        fsync behind every record replace / event append (default).
    """

    def __init__(self, root: str, *, sync: bool = True) -> None:
        self.root = os.fspath(root)
        self._sync = sync
        self._lock = make_rlock("service.state")
        self._records: Dict[str, CampaignRecord] = {}
        self._event_counts: Dict[str, int] = {}
        self._next_id = 1
        os.makedirs(self._campaigns_dir, exist_ok=True)
        self._load()

    @property
    def _campaigns_dir(self) -> str:
        return os.path.join(self.root, "campaigns")

    def _record_path(self, campaign_id: str) -> str:
        return os.path.join(self._campaigns_dir, campaign_id + ".json")

    def _events_path(self, campaign_id: str) -> str:
        return os.path.join(self.root, "events", campaign_id + ".jsonl")

    def _result_path(self, spec_fingerprint: str) -> str:
        return os.path.join(self.root, "results", spec_fingerprint + ".json")

    def _load(self) -> None:
        """Recover records from disk (restart path).

        Runs under the lock even though it is only called from
        ``__init__`` today: ``_records``/``_next_id`` are lock-guarded
        everywhere else, and a future re-scan entry point must not be
        able to forget the discipline.
        """
        with self._lock:
            for name in sorted(os.listdir(self._campaigns_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(self._campaigns_dir, name)
                try:
                    with open(path, encoding="utf-8") as handle:
                        record = CampaignRecord.from_dict(json.load(handle))
                except (OSError, ValueError, KeyError, ServiceError):
                    # A torn record is impossible (atomic replace); anything
                    # unreadable here is foreign garbage — skip, don't serve.
                    continue
                self._records[record.id] = record
                number = _id_number(record.id)
                if number is not None and number >= self._next_id:
                    self._next_id = number + 1

    # -- records ---------------------------------------------------------------

    def create(self, user: str, spec: Dict[str, Any], spec_fingerprint: str,
               *, coalesced_with: Optional[str] = None) -> CampaignRecord:
        """Allocate, persist and return a fresh ``pending`` record."""
        with self._lock:
            record = CampaignRecord(
                id=f"c-{self._next_id:06d}", user=user, spec=spec,
                spec_fingerprint=spec_fingerprint,
                coalesced_with=coalesced_with,
            )
            self._next_id += 1
            self._persist(record)
            self._records[record.id] = record
            self.append_event(record.id, {"kind": "state", "state": "pending"})
            return record

    def get(self, campaign_id: str) -> Optional[CampaignRecord]:
        """The record, or ``None`` when the id was never allocated."""
        with self._lock:
            return self._records.get(campaign_id)

    def list(self, user: Optional[str] = None) -> List[CampaignRecord]:
        """All records (optionally one user's), in id order."""
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.id)
            if user is not None:
                records = [r for r in records if r.user == user]
            return records

    def find_by_spec(self, spec_fingerprint: str) -> List[CampaignRecord]:
        """Records sharing one spec fingerprint, in id order (the
        coalescing lookup; the first non-failed one is the primary)."""
        with self._lock:
            return [r for r in sorted(self._records.values(),
                                      key=lambda r: r.id)
                    if r.spec_fingerprint == spec_fingerprint]

    def active_count(self, user: str) -> int:
        """Non-terminal campaigns owned by ``user`` (the quota check)."""
        with self._lock:
            return sum(1 for r in self._records.values()
                       if r.user == user and not r.terminal)

    # -- lifecycle -------------------------------------------------------------

    def transition(self, campaign_id: str, to: str, *,
                   detail: str = "") -> CampaignRecord:
        """Advance one campaign's lifecycle, durably.

        Validates the edge against :data:`TRANSITIONS`, appends the
        transition to the record's history *and* the event log, bumps
        ``seq``, and atomically replaces the record document.  Raises
        :class:`~repro.errors.LifecycleError` on an illegal edge and
        :class:`~repro.errors.ServiceError` on an unknown id.
        """
        if to not in STATES:
            raise LifecycleError(f"unknown campaign state {to!r}")
        with self._lock:
            record = self._records.get(campaign_id)
            if record is None:
                raise ServiceError(f"no campaign {campaign_id!r}")
            if to not in TRANSITIONS[record.state]:
                raise LifecycleError(
                    f"campaign {campaign_id} cannot move "
                    f"{record.state!r} -> {to!r}")
            record.seq += 1
            entry = {"seq": record.seq, "from": record.state, "to": to,
                     "detail": detail}
            record.state = to
            record.transitions.append(entry)
            self._persist(record)
            event: Dict[str, Any] = {"kind": "state", "state": to}
            if detail:
                event["detail"] = detail
            self.append_event(campaign_id, event)
            return record

    def set_result_digest(self, campaign_id: str, digest: str) -> None:
        """Stamp the result's content digest onto the record, durably."""
        with self._lock:
            record = self._records[campaign_id]
            record.result_digest = digest
            self._persist(record)

    def set_error(self, campaign_id: str, error: str) -> None:
        """Stamp a terminal failure description onto the record."""
        with self._lock:
            record = self._records[campaign_id]
            record.error = str(error)[:500]
            self._persist(record)

    def _persist(self, record: CampaignRecord) -> None:
        from ..store.fingerprint import canonical_json

        atomic_write_text(self._record_path(record.id),
                          canonical_json(record.as_dict()) + "\n",
                          sync=self._sync)

    # -- events ----------------------------------------------------------------

    def append_event(self, campaign_id: str, event: Dict[str, Any]) -> int:
        """Append one event (sequence number assigned here); returns it.

        Events are the progress-streaming substrate: each carries a
        per-campaign monotonic ``seq`` so clients can long-poll with
        ``since=<last seen seq>`` and never miss or re-see an event.
        """
        from ..store.fingerprint import canonical_json

        with self._lock:
            if campaign_id not in self._event_counts:
                # Restart path: continue the sequence after the last
                # durable event instead of reusing its numbers.
                existing = self.read_events(campaign_id)
                self._event_counts[campaign_id] = (
                    existing[-1]["seq"] if existing else 0)
            seq = self._event_counts[campaign_id] + 1
            self._event_counts[campaign_id] = seq
            # The fsync is deliberately under the lock: the event's seq
            # order must match the file's append order, and the lock is
            # what serializes appenders.  Single-writer, tiny line, and
            # the durability contract ("seq N returned => event N on
            # disk") needs the fsync inside.
            append_line(  # spice: noqa SPICE303
                self._events_path(campaign_id),
                canonical_json({"seq": seq, **event}), sync=self._sync)
            return seq

    def read_events(self, campaign_id: str, *,
                    since: int = 0) -> List[Dict[str, Any]]:
        """Events with ``seq > since``, oldest first.

        A torn final line (crash mid-append) is dropped by the shared
        line-log reader; an unparsable interior line is skipped.
        """
        try:
            lines = read_complete_lines(self._events_path(campaign_id))
        except OSError:
            return []
        out: List[Dict[str, Any]] = []
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and doc.get("seq", 0) > since:
                out.append(doc)
        return out

    # -- results ---------------------------------------------------------------

    def save_result(self, spec_fingerprint: str,
                    result: Dict[str, Any]) -> None:
        """Persist one result document, keyed by spec fingerprint.

        Spec-keyed (not campaign-keyed) on purpose: coalesced campaigns
        share it, and a later identical submission is served from it
        without touching the compute path.
        """
        from ..store.fingerprint import canonical_json

        atomic_write_text(self._result_path(spec_fingerprint),
                          canonical_json(result) + "\n", sync=self._sync)

    def load_result(self, spec_fingerprint: str) -> Optional[Dict[str, Any]]:
        """The result document, or ``None`` when never produced."""
        try:
            with open(self._result_path(spec_fingerprint),
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None


def _id_number(campaign_id: str) -> Optional[int]:
    """The numeric part of a ``c-NNNNNN`` id, or None when foreign."""
    if not campaign_id.startswith("c-"):
        return None
    try:
        return int(campaign_id[2:])
    except ValueError:
        return None
