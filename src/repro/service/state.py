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
  reader tolerates a torn final line.  A watcher's ``since=<seq>`` read
  seeks to the first new event instead of re-parsing the log (see
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

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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


@dataclass
class _EventIndex:
    """Where one campaign's event lines start in its log.

    ``starts[seq]`` is the byte offset of the first line carrying ``seq``,
    ``last`` the highest seq indexed and ``end`` the log length the index
    covers.  Appends keep seqs non-decreasing in file order, so no line
    before ``starts[k + 1]`` carries a seq above ``k``.
    """

    starts: Dict[int, int] = field(default_factory=dict)
    last: int = 0
    end: int = 0

    def add(self, seq: Any, start: int, end: int) -> None:
        """Index one complete line (``seq`` ``None`` when it carries none)."""
        if isinstance(seq, int):
            self.starts.setdefault(seq, start)
            self.last = max(self.last, seq)
        self.end = end

    def seek(self, since: int) -> Optional[Tuple[int, int, bool]]:
        """``(offset, seq expected there, caught up)`` for a read of
        ``seq > since``, or ``None`` when no indexed line carries
        ``since + 1``.  A caught-up read starts at ``end``."""
        if since >= self.last:
            return self.end, self.last + 1, True
        offset = self.starts.get(since + 1)
        return None if offset is None else (offset, since + 1, False)


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
        self._event_index: Dict[str, _EventIndex] = {}
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
        """
        from ..store.fingerprint import canonical_json

        with self._lock:
            if campaign_id not in self._event_counts:
                # Restart path: continue the sequence after the last
                # durable event instead of reusing its numbers.
                existing = self.read_events(campaign_id)
                self._event_counts[campaign_id] = (
                    existing[-1]["seq"] if existing else 0)
            first = self._event_counts[campaign_id] + 1
            lines = [canonical_json({"seq": seq, **event})
                     for seq, event in enumerate(events, first)]
            last = first + len(lines) - 1
            self._event_counts[campaign_id] = last
            # The fsync is deliberately under the lock: the events' seq
            # order must match the file's append order, and the lock is
            # what serializes appenders.  Single-writer, a few short lines,
            # and the durability contract ("seq N returned => events up to
            # N on disk") needs the fsync inside.
            start = append_line(  # spice: noqa SPICE303
                self._events_path(campaign_id), *lines, sync=self._sync)
            index = self._event_index.get(campaign_id)
            if index is not None and index.end == start:
                for seq, line in enumerate(lines, first):
                    end = start + len(line.encode("utf-8")) + 1
                    index.add(seq, start, end)
                    start = end
            else:
                # Bytes the index never saw precede these lines (a repaired
                # torn tail, an outside rewrite): the next read rebuilds it.
                self._event_index.pop(campaign_id, None)
            return last

    def read_events(self, campaign_id: str, *,
                    since: int = 0) -> List[Dict[str, Any]]:
        """Events with ``seq > since``, oldest first.

        A torn final line (crash mid-append) is dropped by the shared
        line-log reader; an unparsable interior line is skipped.

        A watcher's read (``since > 0``) costs only the new events: the
        campaign's index — extended by :meth:`append_event`, seeded by the
        first full read, so also for logs written before a restart — gives
        the offset of event ``since + 1`` and only the lines from there on
        are parsed; a watcher that has seen everything, on a log whose
        length has not changed, is answered without opening the file (so
        a line written but not yet indexed is still seen).  When the line
        at the seek point does not carry the expected seq (the log was
        rewritten behind the service's back) the whole log is read and the
        index rebuilt.
        """
        index = None
        if since > 0:
            with self._lock:
                index = self._event_index.get(campaign_id)
                seek = index.seek(since) if index is not None else None
            if seek is not None:
                events = _read_from(self._events_path(campaign_id), since,
                                    *seek)
                if events is not None:
                    return events
        return self._read_all(campaign_id, since, stale=index)

    def _read_all(self, campaign_id: str, since: int,
                  stale: Optional[_EventIndex]) -> List[Dict[str, Any]]:
        """The full read: parse the whole log, and index it when no index
        is current (none yet, or ``stale`` sent this read here)."""
        try:
            lines = read_complete_lines(self._events_path(campaign_id))
        except OSError:
            return []
        docs = [_parse_event(line) for line in lines]
        with self._lock:
            current = self._event_index.get(campaign_id)
        if current is None or current is stale:
            fresh = _EventIndex()
            start = 0
            for line, doc in zip(lines, docs):
                end = start + len(line.encode("utf-8")) + 1
                fresh.add(doc.get("seq") if doc is not None else None,
                          start, end)
                start = end
            with self._lock:
                # Unless another read or an append replaced it meanwhile.
                if self._event_index.get(campaign_id) is current:
                    self._event_index[campaign_id] = fresh
        return _newer(docs, since)

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


def _read_from(path: str, since: int, offset: int, expect: int,
               caught_up: bool) -> Optional[List[Dict[str, Any]]]:
    """Events with ``seq > since`` among the log lines from ``offset`` on,
    or ``None`` when the line there does not carry seq ``expect``.

    A caught-up read (``offset`` is the indexed log length, ``expect`` the
    next seq to be appended) is answered without an open while the log
    length is unchanged, and no complete line yet is no news.
    """
    try:
        if caught_up and os.stat(path).st_size == offset:
            return []
        lines = read_complete_lines(path, offset)
    except (OSError, ValueError):  # ValueError: a stale offset mid-character
        return None
    if not lines:
        return [] if caught_up else None
    docs = [_parse_event(line) for line in lines]
    if docs[0] is None or docs[0].get("seq") != expect:
        return None
    return _newer(docs, since)


def _parse_event(line: str) -> Optional[Dict[str, Any]]:
    """One log line as an event document, ``None`` when it is not one: not
    a JSON object, or its ``seq`` is not an integer (``true`` is not)."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    seq = doc.get("seq")
    return doc if isinstance(seq, int) and not isinstance(seq, bool) \
        else None


def _newer(docs: List[Optional[Dict[str, Any]]],
           since: int) -> List[Dict[str, Any]]:
    return [doc for doc in docs if doc is not None and doc["seq"] > since]


def _id_number(campaign_id: str) -> Optional[int]:
    """The numeric part of a ``c-NNNNNN`` id, or None when foreign."""
    if not campaign_id.startswith("c-"):
        return None
    try:
        return int(campaign_id[2:])
    except ValueError:
        return None
