"""Canonical task fingerprints: the identity of a unit of simulation work.

A *task* is everything that determines a work ensemble bit for bit: the
pulling protocol, the reduced model's parameters, the ensemble shape, the
integration constants, the model kernel, and the seed-stream key.
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

The text comes from the C JSON encoder (one module-level instance) after
a walk over the containers alone has checked that every dict key is a
``str``.  The encoder refuses exactly what the canonical form forbids —
NaN/Inf, unknown types — and only then does the Python walk
(:func:`_normalize`) run, to name the refused value and its JSON path.
Every text and every refusal is the one the walk alone would produce.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from ..errors import StoreError
from ..smd.batched import DEFAULT_FORCE_SAMPLE_TIME, PAPER_CPU_HOURS_PER_NS
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


class _Refused(Exception):
    """A value :func:`_normalize` refuses.  ``where`` collects its JSON path
    segments, innermost first, as the error climbs out: no path string is
    built unless something is refused."""

    def __init__(self, what: str) -> None:
        super().__init__(what)
        self.what = what
        self.where: List[str] = []


def _normalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types, rejecting anything ambiguous."""
    if type(value) is float:        # a record's bulk: checked first
        if not math.isfinite(value):
            raise _Refused("non-finite value")
        return value
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if not math.isfinite(out):
            raise _Refused("non-finite value")
        return out
    if isinstance(value, dict):
        normalized: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise _Refused(f"non-string key {key!r}")
            try:
                normalized[key] = _normalize(item)
            except _Refused as exc:
                exc.where.append(f".{key}")
                raise
        return normalized
    if isinstance(value, (list, tuple)):
        elements: List[Any] = []
        for index, item in enumerate(value):
            try:
                elements.append(_normalize(item))
            except _Refused as exc:
                exc.where.append(f"[{index}]")
                raise
        return elements
    if isinstance(value, np.ndarray):
        return _normalize(value.tolist())
    raise _Refused(f"value of type {type(value).__name__}")


def _encode_default(value: Any) -> Any:
    """The encoder's hook for the NumPy types the walk normalizes."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _normalize(value.tolist())
    raise TypeError(f"value of type {type(value).__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False, default=_encode_default)

#: Leaf types a container may hold without being walked into.
_LEAVES = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


def _keys_are_str(value: Any) -> bool:
    """True when every dict key inside ``value`` is a ``str``.

    The encoder would write an ``int``/``float``/``bool``/``None`` key as
    a string instead of refusing it.  Only containers are walked: the
    keys of a dict and a list of plain scalars are each cleared by one
    pass over their types.
    """
    if isinstance(value, dict):
        if not (_STR.issuperset(map(type, value))
                or all(isinstance(key, str) for key in value)):
            return False
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return True
    return _LEAVES.issuperset(map(type, items)) or all(map(_keys_are_str, items))


def canonical_json(value: Any) -> str:
    """The unique JSON text of ``value``: sorted keys, no whitespace.

    Serialization is a bijection on the normalized data: floats use
    Python's shortest round-tripping repr, so ``loads(canonical_json(x))``
    recovers ``x`` exactly and re-serializing is byte-identical — the
    property the record round-trip tests pin.
    """
    try:
        if _keys_are_str(value):
            return _ENCODER.encode(value)
    except (TypeError, ValueError, RecursionError, _Refused):
        pass
    # Refused (or a key the encoder would coerce): the walk names why.
    try:
        plain = _normalize(value)
    except _Refused as exc:
        path = "$" + "".join(reversed(exc.where))
        raise StoreError(
            f"{exc.what} at {path} cannot be fingerprinted") from None
    return json.dumps(plain, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


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
    out = {f.name: getattr(protocol, f.name) for f in fields(protocol)}
    if out.get("direction") == "forward":
        del out["direction"]
    return out


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
    seed_key: SeedKey,
) -> Dict[str, Any]:
    """Task descriptor for a reduced-model pulling ensemble.

    ``force_sample_time``, ``dt`` and ``cpu_hours_per_ns`` are the engine's
    constants (:mod:`repro.smd.batched`), recorded so the record corpus
    never re-keys; ``"dt": "auto"`` names the model's stability criterion,
    itself a pure function of the other fields.  ``"executor": "single"``
    is a frozen literal: every task is one seeded group of replicas (the
    retired sharded runner wrote ``{"kind": "sharded", ...}`` there; such
    records stay loadable by fingerprint), and dropping the field would
    re-key the record corpus.
    """
    return {
        "kernel": "smd.reduced1d/v1",
        "model": _model_fields(model),
        "protocol": _protocol_fields(protocol),
        "n_samples": int(n_samples),
        "n_records": int(n_records),
        "force_sample_time": DEFAULT_FORCE_SAMPLE_TIME,
        "dt": "auto",
        "cpu_hours_per_ns": PAPER_CPU_HOURS_PER_NS,
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
    """Task descriptor for a full 3-D CG pulling ensemble.

    Each replica's system is
    :func:`~repro.pore.assembly.build_translocation_simulation` of
    ``n_bases``, a start position fixed by ``start_com_z`` and a stream of
    ``seed_key`` — the builder's only inputs, so this descriptor names the
    system exactly.  Everything else the builder sets (pore geometry and
    landscape, chain parameters, solvent, temperature, timestep, the
    Debye–Hückel term) is a construction constant of
    :mod:`repro.pore.assembly`: changing one changes every 3-D pull and
    must bump ``"smd.cg3d/v1"``.
    """
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
