"""Canonical task fingerprints: the identity of a unit of simulation work.

A *task* is everything that determines a work ensemble bit for bit: the
pulling protocol, the reduced model's parameters, the ensemble shape, the
integration settings, the model kernel, and the seed-stream key.
Two runs with equal fingerprints are guaranteed (by construction of the
seeded RNG streams) to produce byte-identical results, which is what makes
the result store safe: a cache hit *is* the computation.

Fingerprints are SHA-256 digests of a canonical JSON form:

* dict keys sorted, no whitespace, ``ensure_ascii`` — so logically equal
  tasks hash equally regardless of construction order;
* only JSON-representable scalars (plus NumPy scalars, normalized), with
  NaN/Inf rejected — Python's shortest-repr float serialization round-trips
  exactly, so the canonical form is also the storage form;
* a ``schema_version`` mixed into every digest, so evolving the task
  vocabulary invalidates old records instead of mis-hitting on them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import StoreError
from ..smd.protocol import PullingProtocol

__all__ = [
    "STORE_SCHEMA_VERSION",
    "RECORD_SCHEMA",
    "SeedKey",
    "canonical_json",
    "task_fingerprint",
    "pulling_task",
    "pulling_task_3d",
]

#: Bumping this invalidates every existing record (fingerprints change).
STORE_SCHEMA_VERSION = 1

#: Schema tag written into (and required of) every on-disk record.
RECORD_SCHEMA = "repro.store.record/v1"

#: The deterministic identity of a task's RNG stream: either a plain integer
#: seed or the full ``stream_for`` label tuple (base seed first).
SeedKey = Union[int, Sequence[Union[int, str]]]


def _normalize(value: Any, path: str = "$") -> Any:
    """Reduce ``value`` to plain JSON types, rejecting anything ambiguous."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if not np.isfinite(out):
            raise StoreError(f"non-finite value at {path} cannot be fingerprinted")
        return out
    if isinstance(value, dict):
        normalized: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise StoreError(
                    f"non-string key {key!r} at {path} cannot be fingerprinted"
                )
            normalized[key] = _normalize(item, f"{path}.{key}")
        return normalized
    if isinstance(value, (list, tuple)):
        return [_normalize(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, np.ndarray):
        return _normalize(value.tolist(), path)
    raise StoreError(
        f"value of type {type(value).__name__} at {path} cannot be fingerprinted"
    )


def canonical_json(value: Any) -> str:
    """The unique JSON text of ``value``: sorted keys, no whitespace.

    Serialization is a bijection on the normalized data: floats use
    Python's shortest round-tripping repr, so ``loads(canonical_json(x))``
    recovers ``x`` exactly and re-serializing is byte-identical — the
    property the record round-trip tests pin.
    """
    return json.dumps(_normalize(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def task_fingerprint(task: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the task's canonical form (64 hex chars)."""
    payload = {"schema_version": STORE_SCHEMA_VERSION, "task": task}
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def _seed_key_list(seed_key: SeedKey) -> list:
    if isinstance(seed_key, (int, np.integer)) and not isinstance(seed_key, bool):
        return [int(seed_key)]
    out = []
    for part in seed_key:
        if isinstance(part, str):
            out.append(part)
        elif isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            out.append(int(part))
        else:
            raise StoreError(
                f"seed-key parts must be int or str, got {type(part).__name__}"
            )
    if not out:
        raise StoreError("seed key cannot be empty")
    return out


def _protocol_fields(protocol: PullingProtocol) -> Dict[str, Any]:
    """Canonical protocol dict for fingerprinting.

    New protocol fields enter the fingerprint through here.  A field at
    its historical default is *dropped* rather than serialized, so adding
    a defaulted field never re-keys the existing record corpus: a forward
    protocol fingerprints exactly as it did before ``direction`` existed,
    while any non-default value (``"reverse"``) is a distinct task.
    Forward and reverse can therefore never collide — one form omits the
    key, the other carries it.
    """
    fields = asdict(protocol)
    if fields.get("direction") == "forward":
        del fields["direction"]
    return fields


def _model_fields(model: Any) -> Dict[str, Any]:
    describe = getattr(model, "fingerprint_data", None)
    if describe is None:
        raise StoreError(
            f"model {type(model).__name__} has no fingerprint_data(); "
            "the result store needs a canonical parameter description"
        )
    return describe()


def pulling_task(
    model: Any,
    protocol: PullingProtocol,
    *,
    n_samples: int,
    n_records: int,
    force_sample_time: Optional[float],
    dt: Optional[float],
    cpu_hours_per_ns: float,
    seed_key: SeedKey,
) -> Dict[str, Any]:
    """Task descriptor for a reduced-model pulling ensemble.

    ``dt=None`` means "derived from the model's stability criterion",
    itself a pure function of the other fields, so it fingerprints as the
    string ``"auto"``.  ``"executor": "single"`` is a frozen literal: every
    task is one seeded group of replicas (the retired sharded runner wrote
    ``{"kind": "sharded", ...}`` there; such records stay loadable by
    fingerprint), and dropping the field would re-key the record corpus.
    """
    return {
        "kernel": "smd.reduced1d/v1",
        "model": _model_fields(model),
        "protocol": _protocol_fields(protocol),
        "n_samples": int(n_samples),
        "n_records": int(n_records),
        "force_sample_time": force_sample_time,
        "dt": "auto" if dt is None else float(dt),
        "cpu_hours_per_ns": float(cpu_hours_per_ns),
        "executor": "single",
        "seed_key": _seed_key_list(seed_key),
    }


def pulling_task_3d(
    protocol: PullingProtocol,
    *,
    n_samples: int,
    n_bases: int,
    n_records: int,
    axis: Tuple[float, float, float],
    start_com_z: float,
    cpu_hours_per_ns: float,
    seed_key: SeedKey,
) -> Dict[str, Any]:
    """Task descriptor for a full 3-D CG pulling ensemble."""
    return {
        "kernel": "smd.cg3d/v1",
        "protocol": _protocol_fields(protocol),
        "n_samples": int(n_samples),
        "n_bases": int(n_bases),
        "n_records": int(n_records),
        "axis": [float(a) for a in axis],
        "start_com_z": float(start_com_z),
        "cpu_hours_per_ns": float(cpu_hours_per_ns),
        "seed_key": _seed_key_list(seed_key),
    }
