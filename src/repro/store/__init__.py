"""Content-addressed result store with deterministic campaign resume.

The paper's whole method rests on decomposing one intractable simulation
into 72 independent, restartable jobs; this package is the memo table that
makes restartability real in the reproduction.  Every unit of simulation
work (a pulling-ensemble task) has a canonical *fingerprint* — the SHA-256
of its protocol, model parameters, ensemble shape, kernel choice and
seed-stream key — and a completed task is persisted as a self-verifying
``repro.store.record/v1`` JSON document under that fingerprint.  Because
every task's RNG stream is derived deterministically from the fingerprinted
seed key, a cache hit returns byte-identical physics: a killed campaign
re-run against the same store resumes bit-identically, recomputing only
the tasks that never finished.

Public surface:

* :func:`task_fingerprint` / :func:`canonical_json` — canonical hashing;
* :func:`pulling_task` / :func:`pulling_task_3d` — task descriptors for
  the two SMD kernels;
* :class:`ResultStore` — the crash-consistent on-disk store: one record
  file per task, per-shard append-only index files so enumeration is
  O(changed shards) at million-task scale, and a ``heal()`` compaction
  pass (``ShardedResultStore`` is a second name for the same class);
* record helpers (:func:`build_record`, :func:`dumps_record`,
  :func:`loads_record`, :func:`validate_record`) for tooling and tests.
"""

from .fingerprint import (
    RECORD_SCHEMA,
    STORE_SCHEMA_VERSION,
    SeedKey,
    canonical_json,
    pulling_task,
    pulling_task_3d,
    task_fingerprint,
)
from .record import (
    build_record,
    decode_ensemble,
    dumps_record,
    encode_ensemble,
    loads_record,
    validate_record,
)
from .sharded import ShardedResultStore
from .store import ResultStore

__all__ = [
    "RECORD_SCHEMA",
    "STORE_SCHEMA_VERSION",
    "SeedKey",
    "canonical_json",
    "task_fingerprint",
    "pulling_task",
    "pulling_task_3d",
    "build_record",
    "encode_ensemble",
    "decode_ensemble",
    "dumps_record",
    "loads_record",
    "validate_record",
    "ResultStore",
    "ShardedResultStore",
]
