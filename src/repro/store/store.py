"""The crash-consistent, content-addressed result store.

Layout: one record per completed task, stored under its fingerprint in
two-hex-char shard directories (256-way fan-out keeps directory listings
flat at campaign scale), plus one append-only ``INDEX`` file per shard::

    <root>/
      meta.json                         # store identity: schema + version
      3f/
        INDEX                           # one fingerprint per line
        3fa4...e1.json                  # repro.store.record/v1 document
        3fa4...e1.json.corrupt          # quarantined evicted record

Writes are atomic: the record is serialized to a ``.tmp.<pid>`` file in the
final shard directory and ``os.replace``-d into place, so a reader (or a
campaign killed mid-write) sees either the complete record or nothing —
never a torn file.  Reads re-validate every record against its schema and
recompute the task fingerprint; anything malformed is *evicted* (renamed to
``.corrupt`` for forensics) and reported as a miss, so one corrupted file
costs one recomputation instead of a poisoned campaign.  A read opens the
record once, with no existence probe first: a missing file is a miss.

Why the indexes: enumerating content by walking the record tree is
O(records) per fresh process — fatal for a million-task resume.  Every
:meth:`ResultStore.put` appends the fingerprint to its shard's INDEX
(fsync'd, after the record itself is durable), so a fresh store instance
recovers the full content view by reading up to 256 small index files
instead of statting a million records, and an *unchanged* shard is trusted
from its index alone.

Crash-consistency argument (the invariant the tests pin down):

* The record write is the commit point — write-tmp → fsync →
  ``os.replace``.  The index append happens *after* the record is durable,
  so an index can only ever be **stale** (missing the most recent records
  of a shard), never **ahead** (listing a record that does not exist).
* Staleness is detected per shard without reading records: replacing a
  record file bumps the shard *directory* mtime, while the index append
  that should follow bumps the INDEX mtime afterwards.  A shard whose
  directory is newer than its INDEX (or that has no INDEX) is re-scanned
  from record files and its index rewritten — that is the "O(changed
  shards)" resume cost.
* A torn index append (crash mid-write) leaves a partial final line, which
  the index reader drops; the affected fingerprints are recovered by the
  same staleness rescan, or recomputed bit-identically by the campaign.
* :meth:`ResultStore.heal` is the belt-and-braces pass: rebuild every index
  from the record files (``deep=True`` additionally validates each record
  and quarantines corruption inside its own shard as ``*.corrupt``).
  Indexes are caches of the record tree, never the other way around.

One layout: ``meta.json`` must hold exactly the current identity text.
Any other meta — another schema, or the index-less layout's meta without a
``"layout"`` key — is refused with :class:`~repro.errors.StoreError`.  A
shard with no INDEX under the current meta is crash recovery, not a layout:
the staleness rescan rebuilds it.

Instrumentation: hits, misses, writes and evictions are surfaced both as
plain attributes (``store.hits`` et al.) and as the ``store.*`` obs metric
families when an :class:`~repro.obs.Obs` handle is attached.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Callable, Dict, List, Optional, Set

from ..errors import CampaignInterrupted, ConfigurationError, StoreError
from ..obs import Obs, as_obs
from ..smd.work import WorkEnsemble
from .fingerprint import (
    RECORD_SCHEMA,
    STORE_SCHEMA_VERSION,
    canonical_json,
    task_fingerprint,
)
from .index import (
    INDEX_NAME,
    append_line,
    atomic_write_text,
    file_stat_key,
    read_index_lines,
    rewrite_index,
    scan_extra_root_entries,
    scan_shard_fingerprints,
    scan_shard_ids,
)
from .record import build_record, decode_ensemble, dumps_record, loads_record

__all__ = ["ResultStore"]

_META_NAME = "meta.json"

#: The store's on-disk identity (exact-match ``meta.json`` text).
_META_TEXT = canonical_json({
    "layout": "sharded",
    "store": "repro.store",
    "record_schema": RECORD_SCHEMA,
    "schema_version": STORE_SCHEMA_VERSION,
}) + "\n"


class ResultStore:
    """Content-addressed memo table of completed work-ensemble tasks.

    Parameters
    ----------
    root:
        Store directory; created (with a ``meta.json`` identity file) if
        missing.  An existing directory must carry a compatible meta file —
        pointing the store at an arbitrary directory is refused rather than
        silently littering it.
    obs:
        Optional instrumentation handle; cache traffic is recorded under
        the ``store.*`` metric families.
    sync:
        fsync every record write and index append (default).  Synthetic
        benchmarks may relax it.
    """

    def __init__(self, root: str, obs: Optional[Obs] = None, *,
                 sync: bool = True) -> None:
        self.root = os.fspath(root)
        self._obs = as_obs(obs)
        self._sync = sync
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: Shards whose INDEX this instance rebuilt from record files.
        self.reindexed_shards = 0
        # Memoized content view: the fingerprint set is read lazily once,
        # then maintained incrementally on put()/evict so resume loops that
        # read len(self)/content_digest() per write stay O(1) per call
        # instead of re-walking the tree (quadratic at campaign scale).
        self._fps: Optional[Set[str]] = None
        self._digest: Optional[str] = None
        #: When set (chaos harness), the store raises
        #: :class:`~repro.errors.CampaignInterrupted` after this many
        #: successful writes — *after* the record is durable, modelling a
        #: process killed between completing one task and starting the next.
        self.interrupt_after_writes: Optional[int] = None
        self._init_root()

    # -- layout ----------------------------------------------------------------

    def _init_root(self) -> None:
        meta_path = os.path.join(self.root, _META_NAME)
        if os.path.isdir(self.root):
            entries = scan_extra_root_entries(self.root)
            if entries and not os.path.isfile(meta_path):
                raise StoreError(
                    f"{self.root!r} is a non-empty directory without a store "
                    f"meta file; refusing to use it as a result store")
        os.makedirs(self.root, exist_ok=True)
        meta = None
        if os.path.isfile(meta_path):
            with open(meta_path, encoding="utf-8") as handle:
                meta = handle.read()
        if meta == _META_TEXT:
            return
        if meta is not None:
            raise StoreError(
                f"store at {self.root!r} was written by an incompatible "
                f"schema; expected {RECORD_SCHEMA}")
        self._atomic_write(meta_path, _META_TEXT)

    @property
    def sync(self) -> bool:
        """Whether writes are fsync'd (what was passed as ``sync=``)."""
        return self._sync

    def path_for(self, fingerprint: str) -> str:
        """Record path for a fingerprint: ``<root>/<fp[:2]>/<fp>.json``."""
        if len(fingerprint) != 64:
            raise StoreError(f"malformed fingerprint {fingerprint!r}")
        return os.path.join(self.root, fingerprint[:2], fingerprint + ".json")

    def _index_path(self, shard_id: str) -> str:
        return os.path.join(self.root, shard_id, INDEX_NAME)

    def _atomic_write(self, path: str, text: str) -> None:
        atomic_write_text(path, text, sync=self._sync)

    # -- content view ----------------------------------------------------------

    def _view(self) -> Set[str]:
        """The memoized fingerprint set (read from the indexes once)."""
        if self._fps is None:
            self._fps = set(self._scan_fingerprints())
        return self._fps

    def _scan_fingerprints(self) -> List[str]:
        """Full content view: trusted indexes + rescans of changed shards."""
        out: List[str] = []
        for shard_id in scan_shard_ids(self.root):
            listed = (None if self._shard_is_stale(shard_id)
                      else self._trusted_index(shard_id))
            out.extend(self._reindex_shard(shard_id) if listed is None
                       else listed)
        return out

    def _shard_is_stale(self, shard_id: str) -> bool:
        """True when the shard directory changed after its last index write.

        Record replaces/evictions bump the directory mtime; the index
        append that commits them comes after, so ``dir newer than INDEX``
        (or a missing INDEX) means the index lost a race with a crash.
        """
        index_key = file_stat_key(self._index_path(shard_id))
        if index_key is None:
            return True
        dir_key = file_stat_key(os.path.join(self.root, shard_id))
        return dir_key is not None and dir_key[1] > index_key[1]

    def _reindex_shard(self, shard_id: str) -> List[str]:
        """Rebuild one shard's INDEX from its record files."""
        fingerprints = scan_shard_fingerprints(
            os.path.join(self.root, shard_id))
        rewrite_index(self._index_path(shard_id), fingerprints,
                      sync=self._sync)
        self.reindexed_shards += 1
        self._count("store.reindexed_shards")
        return fingerprints

    # -- cache interface -------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._view()

    def __len__(self) -> int:
        return len(self._view())

    def fingerprints(self) -> List[str]:
        """All stored fingerprints, sorted.

        Read from the shard indexes once, then maintained incrementally by
        :meth:`put` and eviction; repeated calls cost one sort, not a tree
        walk.
        """
        return sorted(self._view())

    def note_miss(self, n: int = 1) -> None:
        """Count cache misses detected by membership alone (the task
        resolver proves a miss from the fingerprint set without ever
        calling :meth:`get`), so the report's traffic section means the
        same thing on every execution path."""
        self.misses += n
        self._count("store.misses", n)

    def read_record(self, fingerprint: str) -> Dict[str, Any]:
        """Load + validate the raw record document (no eviction on failure)."""
        path = self.path_for(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise StoreError(f"cannot read record {fingerprint[:12]}...: {exc}")
        return loads_record(text, expected_fingerprint=fingerprint)

    def get(self, fingerprint: str) -> Optional[WorkEnsemble]:
        """The cached ensemble, or ``None`` on a miss.

        A record that exists but fails validation is evicted (renamed to
        ``<record>.corrupt``) and counted under ``store.corrupt_evicted``;
        the caller sees an ordinary miss and recomputes.
        """
        path = self.path_for(fingerprint)
        try:
            # One open, no probe: a record that is absent (or vanishes
            # before the read) is a miss like one that never existed.
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            record = loads_record(text, expected_fingerprint=fingerprint)
            ensemble = decode_ensemble(record["result"])
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            ensemble = None
        except (OSError, StoreError, ConfigurationError, KeyError, TypeError,
                ValueError) as exc:
            # StoreCorruptionError covers schema/fingerprint defects; the
            # rest are unreadable files and payloads that parse but cannot
            # rebuild a valid ensemble (wrong shapes, non-monotonic grids,
            # bad protocol).
            self._evict(fingerprint, exc)
            ensemble = None
        if ensemble is None:
            self.misses += 1
            self._count("store.misses")
            return None
        self.hits += 1
        self._count("store.hits")
        return ensemble

    def _evict(self, fingerprint: str, reason: Exception) -> None:
        """Quarantine one record and drop it from its shard's INDEX.

        A record already gone (removed since it was read) has nothing to
        quarantine and counts no eviction; it still leaves the INDEX.
        """
        path = self.path_for(fingerprint)
        try:
            os.replace(path, path + ".corrupt")
        except FileNotFoundError:
            pass
        else:
            self.evictions += 1
            self._count("store.corrupt_evicted")
            if self._obs.enabled:
                self._obs.event("store.evict", path=os.path.basename(path),
                                reason=str(reason)[:200])
        rewrite_index(self._index_path(fingerprint[:2]),
                      scan_shard_fingerprints(os.path.dirname(path)),
                      sync=self._sync)
        if self._fps is not None:
            self._fps.discard(fingerprint)
        self._digest = None

    def put(self, task: Dict[str, Any], ensemble: WorkEnsemble,
            fingerprint: Optional[str] = None) -> str:
        """Persist one completed task; returns its fingerprint.

        ``fingerprint`` is the task's fingerprint when the caller has
        already hashed the descriptor (it is hashed here otherwise).
        The record write is atomic (write-then-rename) and is the commit
        point; the INDEX append follows it.  On return both are durable.
        When the chaos hook :attr:`interrupt_after_writes` is armed and
        this write reaches the threshold, the method then raises
        :class:`~repro.errors.CampaignInterrupted` — the record survives,
        exactly like a process killed between tasks.
        """
        record = build_record(task, ensemble, fingerprint)
        fingerprint = record["fingerprint"]
        self._atomic_write(self.path_for(fingerprint), dumps_record(record))
        append_line(self._index_path(fingerprint[:2]), fingerprint,
                    sync=self._sync)
        if self._fps is not None:
            self._fps.add(fingerprint)
        self._digest = None
        self.writes += 1
        self._count("store.writes")
        if self._obs.enabled:
            self._obs.metrics.set_gauge("store.records", len(self))
        if (self.interrupt_after_writes is not None
                and self.writes >= self.interrupt_after_writes):
            raise CampaignInterrupted(
                f"campaign killed after {self.writes} completed task(s); "
                f"store {self.root!r} holds the finished work")
        return fingerprint

    def get_or_run(self, task: Dict[str, Any],
                   compute: Callable[[], WorkEnsemble]) -> WorkEnsemble:
        """Memoize ``compute()`` under the task's fingerprint."""
        fingerprint = task_fingerprint(task)
        cached = self.get(fingerprint)
        if cached is not None:
            return cached
        ensemble = compute()
        self.put(task, ensemble, fingerprint)
        return ensemble

    # -- heal / compaction -----------------------------------------------------

    def heal(self, *, deep: bool = False) -> Dict[str, Any]:
        """Rebuild every shard index from the record files.

        With ``deep=True`` each record is additionally read and validated;
        corrupt records are quarantined (renamed ``*.corrupt`` inside their
        shard) and dropped from the rebuilt index, so one bad shard never
        poisons the rest of the store.  Returns a report suitable for logs
        and assertions.
        """
        report: Dict[str, Any] = {
            "shards": 0, "records": 0, "reindexed": [],
            "quarantined": [],
        }
        for shard_id in scan_shard_ids(self.root):
            report["shards"] += 1
            shard_dir = os.path.join(self.root, shard_id)
            survivors = []
            for fingerprint in scan_shard_fingerprints(shard_dir):
                if deep and not self._record_is_valid(fingerprint):
                    report["quarantined"].append(fingerprint)
                    continue
                survivors.append(fingerprint)
            if self._trusted_index(shard_id) != survivors:
                report["reindexed"].append(shard_id)
            rewrite_index(self._index_path(shard_id), survivors,
                          sync=self._sync)
            report["records"] += len(survivors)
        # The memoized view may predate the heal; rebuild it lazily.
        self._fps = None
        self._digest = None
        if self._obs.enabled:
            self._obs.event("store.heal", shards=report["shards"],
                            reindexed=len(report["reindexed"]),
                            quarantined=len(report["quarantined"]))
        return report

    def _trusted_index(self, shard_id: str) -> Optional[List[str]]:
        """Current index contents, or None when missing/corrupt."""
        try:
            return read_index_lines(self._index_path(shard_id))
        except (OSError, ValueError):
            return None

    def _record_is_valid(self, fingerprint: str) -> bool:
        try:
            self.read_record(fingerprint)
        except (StoreError, KeyError, TypeError, ValueError):
            # read_record does not evict; quarantine here so the corruption
            # stays contained in its shard.
            self._evict(fingerprint,
                        StoreError("heal: record failed validation"))
            return False
        return True

    # -- introspection ---------------------------------------------------------

    def content_digest(self) -> str:
        """SHA-256 over the sorted fingerprints: the store's content
        identity.  Two stores holding the same completed tasks — however
        they got there — have equal digests.  Memoized until the next
        write/evict."""
        if self._digest is None:
            digest = hashlib.sha256()
            for fingerprint in self.fingerprints():
                digest.update(fingerprint.encode("ascii"))
            self._digest = digest.hexdigest()
        return self._digest

    def stats(self) -> Dict[str, int]:
        """Cache-traffic counters plus shard count and reindex activity,
        for reports and assertions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_evicted": self.evictions,
            "records": len(self),
            "shards": len(scan_shard_ids(self.root)),
            "reindexed_shards": self.reindexed_shards,
        }

    def _count(self, name: str, n: int = 1) -> None:
        if self._obs.enabled:
            self._obs.metrics.inc(name, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.root!r}, records={len(self)})"
