"""Performance subsystem: benchmark harness and the ``repro bench`` suite.

Two benchmark families, both emitting schema-tagged JSON documents
(validated by :func:`~repro.perf.harness.validate_bench_document`):

* :mod:`~repro.perf.bench_kernels` — MD hot-path step rate and
  neighbor-list rebuild cost, ``reference`` vs ``vectorized`` kernels
  (``BENCH_kernels.json``);
* :mod:`~repro.perf.bench_adaptive` — adaptive vs uniform replica
  allocation cost-to-accuracy points with the store/no-store digest
  check (``BENCH_adaptive.json``).

Nothing else measures those two.  Ensemble- and store-path numbers
(sampled ns per wall-second, tasks per second, submit to PMF) come from
the benchmark ladder, ``python3 bench/run.py``, which times those paths as
the service runs them.

Run via ``python -m repro bench [--quick]``; see PERFORMANCE.md for the
performance model and how to reproduce the recorded numbers.
"""

from .harness import (
    SCHEMA_ADAPTIVE,
    SCHEMA_KERNELS,
    Timing,
    load_bench_document,
    metrics_snapshot,
    time_call,
    validate_bench_document,
    write_bench_document,
)
from .bench_kernels import build_benchmark_system, run_kernel_benchmark
from .bench_adaptive import run_adaptive_benchmark

__all__ = [
    "SCHEMA_KERNELS",
    "SCHEMA_ADAPTIVE",
    "Timing",
    "time_call",
    "metrics_snapshot",
    "validate_bench_document",
    "write_bench_document",
    "load_bench_document",
    "build_benchmark_system",
    "run_kernel_benchmark",
    "run_adaptive_benchmark",
]
