"""Benchmark harness: BENCH document schema, validation, read and write.

The perf subsystem emits one machine-readable document,
``BENCH_adaptive.json`` (:data:`SCHEMA_ADAPTIVE`) — adaptive vs uniform
replica allocation, error at equal budget, with the no-store / twin /
cold-store / warm-store digest cross-check (see
:mod:`repro.perf.bench_adaptive`).

The document carries a ``schema`` tag so the format can be extended
without ambiguity, and :func:`validate_bench_document` is the single
gatekeeper: the CLI validates before writing, CI validates after running,
and malformed output — or an unknown schema — fails loudly
(:class:`~repro.errors.AnalysisError`) instead of silently recording
garbage numbers.

Speed is not measured here: wall-clock numbers come from the benchmark
ladder (``python3 bench/run.py``).  The benchmark also records its
numbers through a :mod:`repro.obs` handle (gauges + spans), so a run
report and the BENCH JSON never disagree.
"""

from __future__ import annotations

from ..errors import AnalysisError
from ..obs import Obs, write_json

__all__ = [
    "SCHEMA_ADAPTIVE",
    "metrics_snapshot",
    "validate_bench_document",
    "write_bench_document",
    "load_bench_document",
]

SCHEMA_ADAPTIVE = "repro.bench.adaptive/v1"


def metrics_snapshot(obs: Obs) -> dict:
    """Dump an obs metrics registry as ``{name: as_dict()}`` for embedding
    in a BENCH document (empty for the no-op handle)."""
    if not obs.enabled:
        return {}
    return {name: obs.metrics.get(name).as_dict()
            for name in obs.metrics.names()}


def _require(doc: dict, key: str, typ=None) -> object:
    if key not in doc:
        raise AnalysisError(f"malformed BENCH document: missing key {key!r}")
    value = doc[key]
    if typ is not None and not isinstance(value, typ):
        raise AnalysisError(
            f"malformed BENCH document: {key!r} must be {typ}, "
            f"got {type(value).__name__}"
        )
    return value


def _require_positive(doc: dict, key: str) -> float:
    value = _require(doc, key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not value > 0.0:
        raise AnalysisError(
            f"malformed BENCH document: {key!r} must be a positive number, "
            f"got {value!r}"
        )
    return float(value)


def validate_bench_document(doc: object) -> dict:
    """Validate a BENCH document against its declared schema.

    Returns the document on success; raises
    :class:`~repro.errors.AnalysisError` naming the first defect on
    failure.  This is deliberately strict — a benchmark that emits
    malformed numbers must fail the run (and CI), not poison the perf
    trajectory.
    """
    if not isinstance(doc, dict):
        raise AnalysisError("malformed BENCH document: not a JSON object")
    schema = _require(doc, "schema", str)
    if schema != SCHEMA_ADAPTIVE:
        raise AnalysisError(
            f"malformed BENCH document: unknown schema {schema!r}"
        )
    _require(doc, "quick", bool)
    _require(doc, "seed", int)
    workload = _require(doc, "workload", dict)
    _require_positive(workload, "n_bins")
    _require_positive(workload, "pilot_per_bin")
    points = _require(doc, "points", list)
    if not points:
        raise AnalysisError(
            "malformed BENCH document: adaptive benchmark has no "
            "cost-to-accuracy points")
    for point in points:
        if not isinstance(point, dict):
            raise AnalysisError(
                "malformed BENCH document: adaptive point is not an object")
        budget = _require_positive(point, "budget")
        adaptive_error = _require_positive(point, "adaptive_error")
        uniform_error = _require_positive(point, "uniform_error")
        _require_positive(point, "adaptive_cpu_hours")
        _require_positive(point, "uniform_cpu_hours")
        if adaptive_error > uniform_error:
            raise AnalysisError(
                f"malformed BENCH document: adaptive allocation loses "
                f"to uniform at budget {budget:g} "
                f"({adaptive_error:g} > {uniform_error:g}) — the "
                f"controller no longer dominates")
    deterministic = _require(doc, "deterministic", bool)
    if not deterministic:
        raise AnalysisError(
            "malformed BENCH document: adaptive benchmark reports "
            "deterministic=false — no-store/twin/cold-store/"
            "warm-store digests diverged"
        )
    _require(doc, "metrics", dict)
    return doc


def write_bench_document(path: str, doc: dict) -> None:
    """Validate then write a BENCH document as JSON."""
    write_json(validate_bench_document(doc), path)


def load_bench_document(path: str) -> dict:
    """Read and validate a BENCH document from disk."""
    import json

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise AnalysisError(f"cannot read BENCH document {path}: {exc}") from exc
    return validate_bench_document(doc)
