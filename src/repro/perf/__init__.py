"""Performance subsystem: the ``repro bench`` accuracy benchmark.

One benchmark, emitting a schema-tagged JSON document (validated by
:func:`~repro.perf.harness.validate_bench_document`):
:mod:`~repro.perf.bench_adaptive` — adaptive vs uniform replica
allocation cost-to-accuracy points with the store/no-store digest check
(``BENCH_adaptive.json``).

Speed is the benchmark ladder's job: sampled ns per wall-second, tasks
per second, submit to PMF and the MD kernels' step rate (``cg3d_pull``)
come from ``python3 bench/run.py``, which times those paths as the
service and library run them.

Run via ``python -m repro bench [--quick]``; see PERFORMANCE.md for the
performance model and how to reproduce the recorded numbers.
"""

from .harness import (
    SCHEMA_ADAPTIVE,
    load_bench_document,
    metrics_snapshot,
    validate_bench_document,
    write_bench_document,
)
from .bench_adaptive import run_adaptive_benchmark

__all__ = [
    "SCHEMA_ADAPTIVE",
    "metrics_snapshot",
    "validate_bench_document",
    "write_bench_document",
    "load_bench_document",
    "run_adaptive_benchmark",
]
