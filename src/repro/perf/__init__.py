"""Performance subsystem: benchmark harness and the ``repro bench`` suite.

Two benchmark families, both emitting schema-tagged JSON documents
(validated by :func:`~repro.perf.harness.validate_bench_document`):

* :mod:`~repro.perf.bench_kernels` — MD hot-path step rate and
  neighbor-list rebuild cost, ``reference`` vs ``vectorized`` kernels
  (``BENCH_kernels.json``);
* :mod:`~repro.perf.bench_ensemble` — work-ensemble wall-clock, stacked vs
  one engine call per group, and determinism cross-check
  (``BENCH_ensemble.json``);
* :mod:`~repro.perf.bench_store` — store streaming throughput,
  kill/resume latency, DLQ depth and work-steal counts
  (``BENCH_store.json``);
* :mod:`~repro.perf.bench_adaptive` — adaptive vs uniform replica
  allocation cost-to-accuracy points with the store/no-store digest
  check (``BENCH_adaptive.json``).

Run via ``python -m repro bench [--quick]``; see PERFORMANCE.md for the
performance model and how to reproduce the recorded numbers.
"""

from .harness import (
    SCHEMA_ADAPTIVE,
    SCHEMA_ENSEMBLE,
    SCHEMA_KERNELS,
    SCHEMA_STORE,
    Timing,
    load_bench_document,
    metrics_snapshot,
    time_call,
    validate_bench_document,
    write_bench_document,
)
from .bench_kernels import build_benchmark_system, run_kernel_benchmark
from .bench_ensemble import run_ensemble_benchmark
from .bench_store import run_store_benchmark, synthetic_stream
from .bench_adaptive import run_adaptive_benchmark

__all__ = [
    "SCHEMA_KERNELS",
    "SCHEMA_ENSEMBLE",
    "SCHEMA_STORE",
    "SCHEMA_ADAPTIVE",
    "Timing",
    "time_call",
    "metrics_snapshot",
    "validate_bench_document",
    "write_bench_document",
    "load_bench_document",
    "build_benchmark_system",
    "run_kernel_benchmark",
    "run_ensemble_benchmark",
    "run_store_benchmark",
    "run_adaptive_benchmark",
    "synthetic_stream",
]
