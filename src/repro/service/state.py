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
  a torn one); events are fsync'd appends — one per lifecycle change, one
  per executor window for the progress events that window resolved — whose
  reader tolerates a torn final line.  Like the records, each campaign's
  events are read from disk once and then served from memory, so a
  watcher's ``since=<seq>`` read never opens the log (see
  :meth:`ServiceState.read_events`).
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

import bisect
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
#: is the DLQ retry path, and ``degraded -> completed`` a result-cache twin
#: whose spec's retry healed the one result document both serve.
TRANSITIONS: Dict[str, frozenset] = {
    "pending": frozenset({"running", "cancelled", "completed", "degraded",
                          "failed"}),
    "running": frozenset({"completed", "degraded", "failed", "cancelled"}),
    "completed": frozenset(),
    "degraded": frozenset({"running", "completed"}),
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
        self._events: Dict[str, List[str]] = {}
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

    def append_event(self, campaign_id: str, *events: Dict[str, Any]) -> int:
        """Append ``events`` in order, sequence numbers assigned here, as one
        durable append; returns the last one's seq.

        Events are the progress-streaming substrate: each carries a
        per-campaign monotonic ``seq`` so clients can long-poll with
        ``since=<last seen seq>`` and never miss or re-see an event.  A
        lifecycle change appends one event; the runner appends a window's
        progress events together, so they cost one fsync, not one each.
        The lines join the held events only once the append returned, so
        an append that raises consumes no seq.
        """
        from ..store.fingerprint import canonical_json

        with self._lock:
            held = self._held_events(campaign_id)
            first = _seq(held[-1]) + 1 if held else 1
            lines = [canonical_json({"seq": seq, **event})
                     for seq, event in enumerate(events, first)]
            # The fsync is deliberately under the lock: the events' seq
            # order must match the file's append order, and the lock is
            # what serializes appenders.  Single-writer, a few short lines,
            # and the durability contract ("seq N returned => events up to
            # N on disk") needs the fsync inside.
            try:
                append_line(  # spice: noqa SPICE303
                    self._events_path(campaign_id), *lines, sync=self._sync)
            except BaseException:
                # Part of the batch may have reached the log: hold what a
                # restart would load, read back on the next touch.
                del self._events[campaign_id]
                raise
            held.extend(lines)
            return first + len(lines) - 1

    def read_events(self, campaign_id: str, *,
                    since: int = 0) -> List[Dict[str, Any]]:
        """Events with ``seq > since``, oldest first, from the held lines:
        after a campaign's first touch no read opens its log."""
        with self._lock:
            held = self._held_events(campaign_id)
            new = held[bisect.bisect_right(held, since, key=_seq):]
        return [json.loads(line) for line in new]

    def _held_events(self, campaign_id: str) -> List[str]:
        """The campaign's event lines, seqs strictly increasing; its log is
        read once, on the first touch.

        A torn final line (crash mid-append) is dropped by the shared
        line-log reader, and a line that is not an event (not a JSON
        object, or its ``seq`` is not an integer) is skipped.  A line whose
        seq is not above the last kept one replaces the kept lines from
        that seq on: a batch the crash left unacknowledged was written
        again, under the same seqs, after the restart, so the log reads
        back as the live process held it.
        """
        with self._lock:
            held = self._events.get(campaign_id)
            if held is not None:
                return held
            try:
                lines = read_complete_lines(self._events_path(campaign_id))
            except OSError:
                lines = []
            held = []
            seqs: List[int] = []
            for line in lines:
                seq = _event_seq(line)
                if seq is not None:
                    cut = bisect.bisect_left(seqs, seq)
                    del seqs[cut:], held[cut:]
                    seqs.append(seq)
                    held.append(line)
            self._events[campaign_id] = held
            return held

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


def _seq(line: str) -> int:
    """The ``seq`` of a held line (every held line is an event)."""
    return json.loads(line)["seq"]


def _event_seq(line: str) -> Optional[int]:
    """The ``seq`` of one log line, ``None`` when it is not an event: not a
    JSON object, or its ``seq`` is not an integer (``true`` is not)."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    seq = doc.get("seq") if isinstance(doc, dict) else None
    return seq if isinstance(seq, int) and not isinstance(seq, bool) \
        else None


def _id_number(campaign_id: str) -> Optional[int]:
    """The numeric part of a ``c-NNNNNN`` id, or None when foreign."""
    if not campaign_id.startswith("c-"):
        return None
    try:
        return int(campaign_id[2:])
    except ValueError:
        return None
