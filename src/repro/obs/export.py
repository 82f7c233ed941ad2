"""Exporter: observability data out of the process, machine-readably.

One format, zero dependencies: JSON — one document per run (the ``--json``
CLI path and the ``BENCH_*.json`` perf-trajectory convention).
:func:`render_json` first rewrites the object into plain JSON types: NumPy
scalars become Python numbers, arrays become lists, tuples become lists,
non-string dict keys are stringified, and non-finite floats become
``null`` (JSON has no NaN).
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

__all__ = ["jsonable", "render_json", "write_json"]


def jsonable(obj: Any) -> Any:
    """Recursively rewrite ``obj`` into plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    # Last resort: objects that know how to describe themselves.
    if hasattr(obj, "as_dict"):
        return jsonable(obj.as_dict())
    return str(obj)


def render_json(obj: Any, indent: Optional[int] = 2) -> str:
    """Serialize any report-ish object to a JSON string."""
    return json.dumps(jsonable(obj), indent=indent, sort_keys=False)


def write_json(obj: Any, path: str) -> None:
    """Serialize ``obj`` (via :func:`jsonable`) to a file, two-space
    indented and newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(obj, indent=2))
        fh.write("\n")

