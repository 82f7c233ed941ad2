"""On-disk result records: ``repro.store.record/v1``.

A record is one completed task — the canonical task descriptor, its
fingerprint, and the resulting :class:`~repro.smd.work.WorkEnsemble` — as a
single canonical-JSON document.  Records are *self-verifying*: the
fingerprint stored in the document is recomputed from the stored task on
every read, so a corrupted or hand-edited record cannot masquerade as a
valid cache entry.  Serialization reuses :func:`~repro.store.fingerprint.
canonical_json`, so ``dumps(loads(text)) == text`` byte for byte — the
round-trip property that makes resumed campaigns bit-identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

from ..errors import StoreCorruptionError
from ..smd.protocol import PullingProtocol
from ..smd.work import WorkEnsemble
from .fingerprint import RECORD_SCHEMA, canonical_json, task_fingerprint

__all__ = [
    "encode_ensemble",
    "decode_ensemble",
    "build_record",
    "dumps_record",
    "loads_record",
    "validate_record",
]

_PROTOCOL_FIELDS = ("kappa_pn", "velocity", "distance", "start_z",
                    "equilibration_ns")
_RESULT_FIELDS = ("protocol", "displacements", "works", "positions",
                  "temperature", "cpu_hours")


def _encode_protocol(protocol: PullingProtocol) -> Dict[str, Any]:
    """Protocol fields for a record.

    ``direction`` is written only when non-default ("reverse"), mirroring
    the fingerprint normalization: pre-direction records stay byte-stable
    and decode via the dataclass default.
    """
    fields = {f: getattr(protocol, f) for f in _PROTOCOL_FIELDS}
    if protocol.direction != "forward":
        fields["direction"] = protocol.direction
    return fields


def encode_ensemble(ensemble: WorkEnsemble) -> Dict[str, Any]:
    """JSON-ready view of a work ensemble (exact float round-trip)."""
    return {
        "protocol": _encode_protocol(ensemble.protocol),
        "displacements": ensemble.displacements.tolist(),
        "works": ensemble.works.tolist(),
        "positions": ensemble.positions.tolist(),
        "temperature": float(ensemble.temperature),
        "cpu_hours": float(ensemble.cpu_hours),
    }


def decode_ensemble(data: Dict[str, Any]) -> WorkEnsemble:
    """Rebuild the ensemble; shape/monotonicity checks run in its ctor."""
    return WorkEnsemble(
        protocol=PullingProtocol(**data["protocol"]),
        displacements=np.asarray(data["displacements"], dtype=np.float64),
        works=np.asarray(data["works"], dtype=np.float64),
        positions=np.asarray(data["positions"], dtype=np.float64),
        temperature=float(data["temperature"]),
        cpu_hours=float(data["cpu_hours"]),
    )


def build_record(task: Dict[str, Any], ensemble: WorkEnsemble,
                 fingerprint: Optional[str] = None) -> Dict[str, Any]:
    """Assemble a schema-tagged record for one completed task.

    ``fingerprint`` is ``task_fingerprint(task)`` when the caller already
    holds it (the hash is the dearest part of a small record); it is
    computed here otherwise.  Readers re-derive it either way
    (:func:`validate_record`).
    """
    return {
        "schema": RECORD_SCHEMA,
        "fingerprint": fingerprint or task_fingerprint(task),
        "task": task,
        "result": encode_ensemble(ensemble),
    }


def dumps_record(record: Dict[str, Any]) -> str:
    """Canonical text of a record (newline-terminated for clean diffs)."""
    return canonical_json(record) + "\n"


def validate_record(record: Any, expected_fingerprint: str = "") -> Dict[str, Any]:
    """Check a decoded record against the ``repro.store.record/v1`` schema.

    Raises :class:`~repro.errors.StoreCorruptionError` naming the first
    defect; returns the record unchanged when it is well-formed.  The
    stored fingerprint must match both the fingerprint recomputed from the
    stored task and, when given, the ``expected_fingerprint`` the caller
    looked the record up under.
    """
    if not isinstance(record, dict):
        raise StoreCorruptionError("record is not a JSON object")
    schema = record.get("schema")
    if schema != RECORD_SCHEMA:
        raise StoreCorruptionError(
            f"record schema is {schema!r}, expected {RECORD_SCHEMA!r}")
    fingerprint = record.get("fingerprint")
    if not (isinstance(fingerprint, str) and len(fingerprint) == 64
            and all(c in "0123456789abcdef" for c in fingerprint)):
        raise StoreCorruptionError("record fingerprint is not a sha256 hex digest")
    task = record.get("task")
    if not isinstance(task, dict):
        raise StoreCorruptionError("record task is not a JSON object")
    recomputed = task_fingerprint(task)
    if recomputed != fingerprint:
        raise StoreCorruptionError(
            f"stored fingerprint {fingerprint[:12]}... does not match the "
            f"stored task (recomputed {recomputed[:12]}...)")
    if expected_fingerprint and fingerprint != expected_fingerprint:
        raise StoreCorruptionError(
            f"record fingerprint {fingerprint[:12]}... does not match its "
            f"store location {expected_fingerprint[:12]}...")
    result = record.get("result")
    if not isinstance(result, dict):
        raise StoreCorruptionError("record result is not a JSON object")
    missing = [f for f in _RESULT_FIELDS if f not in result]
    if missing:
        raise StoreCorruptionError(f"record result misses fields {missing}")
    return record


def loads_record(text: str, expected_fingerprint: str = "") -> Dict[str, Any]:
    """Parse + validate one record document."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(f"record is not valid JSON: {exc}") from exc
    return validate_record(record, expected_fingerprint)
