"""On-disk result records: ``repro.store.record/v1``.

A record is one completed task — the canonical task descriptor, its
fingerprint, and the resulting :class:`~repro.smd.work.WorkEnsemble` — as a
single canonical-JSON document.  Records are *self-verifying*: the
fingerprint stored in the document is recomputed from the stored task on
every read, so a corrupted or hand-edited record cannot masquerade as a
valid cache entry.  Serialization reuses :func:`~repro.store.fingerprint.
canonical_json`, so ``dumps(loads(text)) == text`` byte for byte — the
round-trip property that makes resumed campaigns bit-identical.

The recomputation hashes the stored task's *bytes*.  ``task`` sorts
last, so a text :func:`dumps_record` wrote ends
``,"schema":"repro.store.record/v1","task":T}`` and a newline, and T is
the task's canonical JSON: ``task_fingerprint(task)`` is the SHA-256 of
``{"schema_version":1,"task":`` + T + ``}``, with no Python walk over the
parsed task.  Any other text — reformatted, reordered, a ``task`` member
that is not the last — is checked by re-hashing the parsed task, as is
a text whose bytes do not hash to its fingerprint.  Both checks accept
the same records: bytes that hash to a fingerprint some writer computed
are that task's canonical text, barring a SHA-256 collision.  ``NaN``
and ``Infinity``, which the writer refuses, are refused on read too.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import StoreCorruptionError
from ..smd.protocol import PullingProtocol
from ..smd.work import WorkEnsemble
from .fingerprint import (
    RECORD_SCHEMA,
    STORE_SCHEMA_VERSION,
    canonical_json,
    task_fingerprint,
)

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

#: What precedes the task in the text :func:`dumps_record` writes.
_TASK_MARKER = f',"schema":"{RECORD_SCHEMA}","task":'
#: ``task_fingerprint`` hashes this, the task's canonical JSON, then "}".
_FINGERPRINT_HEAD = f'{{"schema_version":{STORE_SCHEMA_VERSION},"task":'
_HEX_DIGITS = frozenset("0123456789abcdef")


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
    return _validate(record, expected_fingerprint, None)


def _validate(record: Any, expected_fingerprint: str,
              task_text: Optional[str]) -> Dict[str, Any]:
    """:func:`validate_record`, where ``task_text`` (when not ``None``) is
    the stored task's text: bytes that hash to the stored fingerprint
    stand for the parsed task's re-hash."""
    if not isinstance(record, dict):
        raise StoreCorruptionError("record is not a JSON object")
    schema = record.get("schema")
    if schema != RECORD_SCHEMA:
        raise StoreCorruptionError(
            f"record schema is {schema!r}, expected {RECORD_SCHEMA!r}")
    fingerprint = record.get("fingerprint")
    if not (isinstance(fingerprint, str) and len(fingerprint) == 64
            and _HEX_DIGITS.issuperset(fingerprint)):
        raise StoreCorruptionError("record fingerprint is not a sha256 hex digest")
    task = record.get("task")
    if not isinstance(task, dict):
        raise StoreCorruptionError("record task is not a JSON object")
    if task_text is None or hashlib.sha256(
            (_FINGERPRINT_HEAD + task_text + "}").encode()
    ).hexdigest() != fingerprint:
        recomputed = task_fingerprint(task)
        if recomputed != fingerprint:
            raise StoreCorruptionError(
                f"stored fingerprint {fingerprint[:12]}... does not match "
                f"the stored task (recomputed {recomputed[:12]}...)")
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


def _refuse_constant(name: str) -> Any:
    raise StoreCorruptionError(f"record holds the non-finite constant {name}")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _parse_layout(text: str) -> Optional[Tuple[Dict[str, Any], str]]:
    """``(record, T)`` for a text with the layout :func:`dumps_record`
    writes, T being the stored task's text; ``None`` for any other text.

    The text is parsed in two pieces: T, from the marker on, and the
    members before the marker closed with ``}``.  T must end right before
    the text's closing brace and the members before it must close with
    one brace, so the marker sits in the top-level object and T is its
    last member: the two pieces are the one parse of the whole text, and
    T is the ``task`` that parse keeps.  A ``"task":`` key anywhere before
    the marker sends the text to the whole-text parse.
    """
    start = text.rfind(_TASK_MARKER)
    begin = start + len(_TASK_MARKER)
    if (start < 0 or not text.endswith("}\n")
            or text.find('"task":') != begin - len('"task":')):
        return None
    try:
        task, end = _DECODER.raw_decode(text, begin)
        if end != len(text) - 2:
            return None
        record = _DECODER.decode(text[:start] + "}")
    except (ValueError, StoreCorruptionError):
        return None
    if not record:          # "{" then the marker: not JSON as a whole
        return None
    record["schema"] = RECORD_SCHEMA
    record["task"] = task
    return record, text[begin:end]


def loads_record(text: str, expected_fingerprint: str = "") -> Dict[str, Any]:
    """Parse + validate one record document."""
    parsed = _parse_layout(text)
    if parsed is not None:
        return _validate(parsed[0], expected_fingerprint, parsed[1])
    try:
        record = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(f"record is not valid JSON: {exc}") from exc
    return _validate(record, expected_fingerprint, None)
