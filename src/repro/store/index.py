"""The store's *index layer*: every directory scan and index-file access,
and the one durable line-log the repo's append-only text files share.

:class:`~repro.store.ResultStore` keeps an append-only ``INDEX`` file per
shard directory so that enumeration is O(changed shards) instead of
O(records).

Design rules (enforced by lint rule SPICE106):

* **All** ``os.listdir``/``os.scandir``/``glob`` calls against a store tree
  live here.  Store logic above this layer reasons in fingerprints and
  shard ids, never in directory entries, so the on-disk layout can change
  without touching cache semantics.
* Index files are *caches of the truth*, where the truth is the set of
  record files.  Every index read tolerates a torn final line (a crash
  during append) and every consumer must survive an index that is stale by
  the most recent write — the store falls back to a record scan of the
  shard, and its ``heal()`` rewrites indexes from records, never the other
  way around.
* Durability discipline matches the record files: full rewrites go through
  write-tmp → fsync → ``os.replace``; appends fsync before returning.

The line-log (:func:`append_line` / :func:`read_complete_lines`) is that
append discipline plus its reader: a line is written, flushed and fsync'd,
and a reader drops a final line with no trailing newline because a crash
tore it.  INDEX files, the service's per-campaign event logs and
``DLQ.jsonl`` all go through it; what a *complete* but unparsable line
means is each consumer's own policy.
"""

from __future__ import annotations

import os
from typing import IO, Any, Iterable, List, Optional, Tuple

__all__ = [
    "INDEX_NAME",
    "atomic_write_text",
    "append_line",
    "read_complete_lines",
    "file_stat_key",
    "scan_shard_ids",
    "scan_shard_fingerprints",
    "scan_extra_root_entries",
    "read_index_lines",
    "rewrite_index",
]

#: Per-shard index file name.  Lives inside the shard directory next to the
#: records it enumerates; one fingerprint per line, append-only.
INDEX_NAME = "INDEX"

_FINGERPRINT_LEN = 64
_RECORD_SUFFIX = ".json"
_HEX = frozenset("0123456789abcdef")


def _is_fingerprint(text: str) -> bool:
    return len(text) == _FINGERPRINT_LEN and set(text) <= _HEX


# -- durable writes ------------------------------------------------------------


def _open_creating_dir(path: str, mode: str, **kwargs: Any) -> IO[Any]:
    """``open(path, mode)``; a missing parent directory is created on
    demand (one retry) instead of being ``makedirs``-probed on every write."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, mode, **kwargs)


def atomic_write_text(path: str, text: str, *, sync: bool = True) -> None:
    """Write ``text`` to ``path`` atomically (write-tmp → fsync → replace)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with _open_creating_dir(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        if sync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def append_line(path: str, line: str, *, sync: bool = True) -> None:
    """Append ``line`` plus a newline to a text log, durably.

    A crash mid-append leaves at most one torn final line, which
    :func:`read_complete_lines` drops on the next read.  The next append
    terminates such a fragment first, so it stays one unparsable line of
    its own instead of swallowing the entry written after the restart.
    """
    data = (line + "\n").encode("utf-8")
    with _open_creating_dir(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        if sync:
            handle.flush()
            os.fsync(handle.fileno())


def read_complete_lines(path: str) -> List[str]:
    """The newline-terminated lines of a text log, without the newlines.

    Whatever follows the last newline is a torn append from a crash and is
    dropped.  Raises ``OSError`` when the file cannot be read.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    lines.pop()  # "" after a final newline, else the torn tail
    return lines


# -- scans (the only directory walks in the store) -----------------------------


def file_stat_key(path: str) -> Optional[Tuple[int, int]]:
    """``(size, mtime_ns)`` memoization key for a file, ``None`` if absent."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_size, st.st_mtime_ns)


def scan_shard_ids(root: str) -> List[str]:
    """Sorted two-hex-char shard directory names under ``root``."""
    out = []
    if not os.path.isdir(root):
        return out
    for entry in os.listdir(root):
        if len(entry) == 2 and set(entry) <= _HEX \
                and os.path.isdir(os.path.join(root, entry)):
            out.append(entry)
    return sorted(out)


def scan_shard_fingerprints(shard_dir: str) -> List[str]:
    """Sorted fingerprints of the record files present in one shard dir."""
    out = []
    if not os.path.isdir(shard_dir):
        return out
    for name in os.listdir(shard_dir):
        if name.endswith(_RECORD_SUFFIX):
            stem = name[:-len(_RECORD_SUFFIX)]
            if _is_fingerprint(stem):
                out.append(stem)
    return sorted(out)


def scan_extra_root_entries(root: str) -> List[str]:
    """Non-hidden root entries, for the refuse-foreign-directory check."""
    if not os.path.isdir(root):
        return []
    return sorted(e for e in os.listdir(root) if not e.startswith("."))


# -- index files ---------------------------------------------------------------


def read_index_lines(path: str) -> List[str]:
    """Fingerprints listed in an index file, deduplicated and sorted.

    A torn final line is dropped by :func:`read_complete_lines`; any
    malformed complete line marks the whole index as untrustworthy and
    raises ``ValueError`` so the caller falls back to a record scan.
    """
    seen = set()
    for line in read_complete_lines(path):
        if not _is_fingerprint(line):
            raise ValueError(f"malformed index line {line!r:.80} in {path!r}")
        seen.add(line)
    return sorted(seen)


def rewrite_index(path: str, fingerprints: Iterable[str], *,
                  sync: bool = True) -> None:
    """Atomically replace an index file with the given fingerprint set.

    The final ``os.replace`` bumps the *directory* mtime after the index
    file's own write timestamp, which would make the shard look
    permanently stale to the dir-newer-than-index freshness check; touch
    the index afterwards so a just-rewritten index is trusted.
    """
    body = "".join(fp + "\n" for fp in sorted(set(fingerprints)))
    atomic_write_text(path, body, sync=sync)
    os.utime(path, None)
