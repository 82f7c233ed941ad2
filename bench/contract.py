"""``BENCHMARK.json`` as the single list of metric names, units and bounds.

``run.py`` reports exactly the metrics the document names, ``compare.py``
applies its bounds, and ``validate_result`` is the check that a result
line says what the document promises.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

#: End-to-end metrics that exist on ``warm_service`` only (its request
#: and resubmit phases).  The driver wants every ``end_to_end`` metric from
#: every workload, so in BENCHMARK.json these are ``per_layer`` entries —
#: still measured on the untraced repeat — and the bounds live here, where
#: ``compare.py`` applies them like any other.
WARM_ONLY: Dict[str, Dict[str, Any]] = {
    "req_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "req_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "requests_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10},
    "twin_submit_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(benchmark: Dict[str, Any], trace: bool
                 ) -> Dict[str, Dict[str, Any]]:
    """name -> declaration of the metrics a run with ``--trace`` reports."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in benchmark[section]}


def gated_metrics(benchmark: Dict[str, Any], workload: str
                  ) -> Dict[str, Dict[str, Any]]:
    """Every bounded metric of one workload: the document's end-to-end
    list plus the warm-only ones."""
    table = dict(metric_table(benchmark, trace=False))
    if workload == "warm_service":
        table.update({name: {"name": name, **decl}
                      for name, decl in WARM_ONLY.items()})
    return table


def validate_result(result: Any, benchmark: Dict[str, Any],
                    trace: bool) -> List[str]:
    """Defects of one result line against the document; empty when it is
    exactly what the driver expects."""
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    defects: List[str] = []
    expected_keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != expected_keys:
        defects.append(f"keys are {sorted(result)}, "
                       f"expected {sorted(expected_keys)}")
        return defects
    if not isinstance(result["correct"], bool):
        defects.append("'correct' is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < least:
            defects.append(f"{key!r} is not a whole number >= {least}")
    declared = metric_table(benchmark, trace)
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return defects + ["'metrics' is not an object"]
    for name in sorted(set(declared) - set(metrics)):
        defects.append(f"metric {name!r} is missing")
    for name in sorted(set(metrics) - set(declared)):
        defects.append(f"metric {name!r} is not declared")
    for name, entry in metrics.items():
        if name not in declared:
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            defects.append(f"metric {name!r} lacks exactly value and unit")
            continue
        if entry["unit"] != declared[name]["unit"]:
            defects.append(f"metric {name!r} has unit {entry['unit']!r}, "
                           f"declared {declared[name]['unit']!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            defects.append(f"metric {name!r} value is not a number")
        elif not trace and value == 0:
            defects.append(f"end-to-end metric {name!r} is 0")
    return defects
