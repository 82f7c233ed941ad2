"""Durable dead-letter queue for permanently-failing campaign tasks.

PR 2's retry/circuit-breaker machinery assumes failures are transient: a
task that fails *every* attempt at *every* site would previously pin the
campaign — burning the placement retry budget forever, or blocking a cell
from ever merging.  The DLQ gives such tasks a terminal state instead:
after its seeded :class:`~repro.resil.RetryPolicy` is exhausted (or the
failure is declared :class:`~repro.errors.PermanentTaskFailure` outright,
or a breaker keeps tripping on it), the task is recorded durably and the
campaign *completes degraded*, reporting the DLQ contents.

Format: one ``repro.resil.dlq/v1`` canonical-JSON document per line in an
append-only ``DLQ.jsonl`` file, written and read through the store's
durable line-log (:func:`repro.store.index.append_line`).  Appends are
fsync'd; a crash mid-append leaves at most one torn final line, which
reads drop (the task it described will simply fail and be re-recorded on
resume).  Entries
carry no wall-clock fields, so a chaos campaign's DLQ is bit-identical
across same-seed runs.  Recording is idempotent per task key: a resumed
campaign that dead-letters the same task again is counted as a
redelivery, not a duplicate entry.

Requeue (``repro dlq retry``, the service's DLQ-retry endpoint): an entry
may be marked *requeued*, which removes it from the :meth:`active_entries`
set the executors treat as terminally failed — the next run recomputes the
task.  If it succeeds, the entry simply stays requeued (a tombstone with
its delivery history); if it dead-letters again, :meth:`record` flips it
back to active and bumps its ``deliveries`` counter instead of appending a
duplicate, so delivery accounting stays idempotent no matter how many
requeue/fail cycles a task goes through.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs import Obs, as_obs

__all__ = ["DLQ_SCHEMA", "DeadLetterQueue", "task_key_tuple"]

DLQ_SCHEMA = "repro.resil.dlq/v1"

#: Reasons a task may be dead-lettered; fixed vocabulary so reports and
#: tests can switch on them.
_REASONS = frozenset({
    "retry-exhausted",      # seeded RetryPolicy ran out of attempts
    "permanent-failure",    # PermanentTaskFailure: no retry can fix it
    "breaker-rejected",     # every eligible site's breaker kept it out
    "unplaceable",          # grid placement retries exhausted
})


def _canonical_line(entry: Dict[str, Any]) -> str:
    from ..store.fingerprint import canonical_json

    return canonical_json(entry) + "\n"


def _task_key_list(task_key: Sequence[Any]) -> List[Any]:
    out: List[Any] = []
    for part in task_key:
        if isinstance(part, (str, bool)):
            out.append(part)
        elif isinstance(part, int):
            out.append(int(part))
        elif isinstance(part, float):
            out.append(float(part))
        else:
            raise ConfigurationError(
                f"DLQ task keys must be flat str/int/float tuples, "
                f"got {type(part).__name__!r}")
    return out


class DeadLetterQueue:
    """Append-only ``DLQ.jsonl`` of permanently-failed tasks.

    Parameters
    ----------
    path:
        The queue file (conventionally ``<store-root>/DLQ.jsonl`` or a
        sibling of the campaign artifacts).  Parent directories are
        created; an existing file is loaded so recording stays idempotent
        across resumes.
    obs:
        Optional instrumentation handle (``resil.dlq.*`` counters).
    sync:
        fsync each append (default).  Synthetic benchmarks may relax it.
    """

    def __init__(self, path: str, obs: Optional[Obs] = None, *,
                 sync: bool = True) -> None:
        self.path = os.fspath(path)
        self._obs = as_obs(obs)
        self._sync = sync
        self.redeliveries = 0
        self._entries: List[Dict[str, Any]] = []
        self._keys: set[str] = set()
        self._load()

    def _load(self) -> None:
        from ..store.index import read_complete_lines

        if not os.path.isfile(self.path):
            return
        for line in read_complete_lines(self.path):
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn interior line: unrecoverable, skip
            if isinstance(entry, dict) and entry.get("schema") == DLQ_SCHEMA:
                self._entries.append(entry)
                self._keys.add(self._dedup_key(entry))

    @staticmethod
    def _dedup_key(entry: Dict[str, Any]) -> str:
        fingerprint = entry.get("fingerprint")
        if fingerprint:
            return str(fingerprint)
        return json.dumps(entry.get("task_key", []), sort_keys=True)

    # -- recording -------------------------------------------------------------

    def record(self, *, task_key: Sequence[Any], reason: str, attempts: int,
               last_error: str, fingerprint: Optional[str] = None,
               site_history: Iterable[str] = ()) -> Dict[str, Any]:
        """Dead-letter one task; returns the durable entry.

        Idempotent: recording a task whose key is already queued counts a
        *redelivery* — for an active entry the existing record is returned
        unchanged; for a requeued entry (a retried task that failed again)
        the entry is flipped back to active with its ``deliveries``
        counter bumped and its failure fields refreshed.  Either way the
        queue never grows a duplicate line for one task.
        """
        if reason not in _REASONS:
            raise ConfigurationError(
                f"unknown DLQ reason {reason!r}; expected one of "
                f"{sorted(_REASONS)}")
        entry: Dict[str, Any] = {
            "schema": DLQ_SCHEMA,
            "task_key": _task_key_list(task_key),
            "fingerprint": fingerprint,
            "reason": reason,
            "attempts": int(attempts),
            "last_error": str(last_error)[:500],
            "site_history": [str(s) for s in site_history],
            "deliveries": 1,
            "requeued": False,
        }
        key = self._dedup_key(entry)
        if key in self._keys:
            self.redeliveries += 1
            self._count("resil.dlq.redelivered")
            for existing in self._entries:
                if self._dedup_key(existing) != key:
                    continue
                if existing.get("requeued"):
                    # The retried task failed again: reactivate in place.
                    existing["requeued"] = False
                    existing["deliveries"] = \
                        int(existing.get("deliveries", 1)) + 1
                    existing["reason"] = reason
                    existing["attempts"] = int(attempts)
                    existing["last_error"] = str(last_error)[:500]
                    self._rewrite()
                    if self._obs.enabled:
                        self._obs.metrics.set_gauge(
                            "resil.dlq.depth", len(self.active_entries()))
                return existing
        self._append(entry)
        self._entries.append(entry)
        self._keys.add(key)
        self._count("resil.dlq.recorded")
        if self._obs.enabled:
            self._obs.event("resil.dlq.record", reason=reason,
                            attempts=int(attempts),
                            task_key=str(list(task_key))[:120])
            self._obs.metrics.set_gauge("resil.dlq.depth",
                                        len(self.active_entries()))
        return entry

    def _append(self, entry: Dict[str, Any]) -> None:
        from ..store.fingerprint import canonical_json
        from ..store.index import append_line

        append_line(self.path, canonical_json(entry), sync=self._sync)

    def _rewrite(self) -> None:
        """Atomically rewrite the whole queue file (requeue/reactivate).

        Uses the store's write-tmp -> fsync -> replace discipline: a crash
        mid-rewrite leaves the previous file intact, never a torn one.
        """
        from ..store.index import atomic_write_text

        atomic_write_text(
            self.path,
            "".join(_canonical_line(entry) for entry in self._entries),
            sync=self._sync)

    # -- requeue ---------------------------------------------------------------

    def requeue(self, *, fingerprints: Optional[Iterable[str]] = None,
                task_keys: Optional[Iterable[Sequence[Any]]] = None
                ) -> List[Dict[str, Any]]:
        """Mark matching active entries requeued; returns those flipped.

        With neither selector, every active entry is requeued.  Entries
        already requeued (or matching nothing) are skipped, so calling
        this twice — an operator retrying a retry, the service endpoint
        being replayed — is a no-op the second time: redelivery accounting
        only moves when :meth:`record` sees the task actually fail again.
        The rewrite is atomic and durable before this returns.
        """
        wanted: Optional[set] = None
        if fingerprints is not None or task_keys is not None:
            wanted = {str(f) for f in (fingerprints or ())}
            wanted.update(
                json.dumps(_task_key_list(k), sort_keys=True)
                for k in (task_keys or ()))
        flipped: List[Dict[str, Any]] = []
        for entry in self._entries:
            if entry.get("requeued"):
                continue
            if wanted is not None and self._dedup_key(entry) not in wanted:
                continue
            entry["requeued"] = True
            entry.setdefault("deliveries", 1)
            flipped.append(entry)
        if flipped:
            self._rewrite()
            self._count("resil.dlq.requeued", len(flipped))
            if self._obs.enabled:
                self._obs.metrics.set_gauge(
                    "resil.dlq.depth", len(self.active_entries()))
        return flipped

    # -- introspection ---------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """All queued entries, in append order (requeued ones included)."""
        return list(self._entries)

    def active_entries(self) -> List[Dict[str, Any]]:
        """Entries still terminally failed — the set executors must treat
        as dead.  Requeued entries are excluded (eligible to recompute)."""
        return [e for e in self._entries if not e.get("requeued")]

    def requeued_entries(self) -> List[Dict[str, Any]]:
        """Entries handed back for another attempt and not failed since."""
        return [e for e in self._entries if e.get("requeued")]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint_or_key: Any) -> bool:
        if isinstance(fingerprint_or_key, str):
            return fingerprint_or_key in self._keys
        if isinstance(fingerprint_or_key, (tuple, list)):
            return json.dumps(_task_key_list(fingerprint_or_key),
                              sort_keys=True) in self._keys
        return False

    def summary(self) -> Dict[str, Any]:
        """Report-ready view: depth, reasons histogram, task keys.

        ``depth``/``reasons``/``task_keys`` cover the *active* entries
        (what is terminally failed right now); ``requeued`` counts entries
        handed back for retry, and ``total`` is every line in the file.
        """
        active = self.active_entries()
        reasons: Dict[str, int] = {}
        for entry in active:
            reasons[entry["reason"]] = reasons.get(entry["reason"], 0) + 1
        return {
            "depth": len(active),
            "reasons": {k: reasons[k] for k in sorted(reasons)},
            "task_keys": [entry["task_key"] for entry in active],
            "redeliveries": self.redeliveries,
            "requeued": len(self._entries) - len(active),
            "total": len(self._entries),
        }

    def _count(self, name: str, amount: int = 1) -> None:
        if self._obs.enabled:
            self._obs.metrics.inc(name, amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeadLetterQueue({self.path!r}, depth={len(self)})"


def task_key_tuple(entry: Dict[str, Any]) -> Tuple[Any, ...]:
    """The entry's task key as a hashable tuple (test/report helper)."""
    return tuple(entry["task_key"])
