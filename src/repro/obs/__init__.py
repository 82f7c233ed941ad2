"""Observability subsystem: metrics, tracing, exporters, run reports.

Zero-dependency instrumentation for the whole reproduction, built around
one convention — the **explicit handle**:

>>> from repro.obs import Obs
>>> obs = Obs()
>>> with obs.span("smd.ensemble", kappa=100.0):
...     obs.inc("smd.je_samples", 48)
>>> obs.metrics.counter("smd.je_samples").value
48.0

Every observable component takes an optional ``obs=`` keyword defaulting
to the no-op handle (:data:`NOOP`), so existing call sites, hot loops and
bit-for-bit determinism are untouched unless a caller opts in.  There are
no globals and no background threads: a handle is plain state you pass
down the stack and read out at the end.

Clocks are explicit too: traces inside the grid's discrete-event simulator
use :class:`SimClock` (simulated hours, exactly reproducible), real host
paths use :class:`PerfClock` (``time.perf_counter`` seconds).

Modules
-------
:mod:`~repro.obs.metrics`
    Counter / Gauge / Histogram and the get-or-create registry.
:mod:`~repro.obs.trace`
    Span/event tracer with pluggable clocks.
:mod:`~repro.obs.handle`
    The :class:`Obs` bundle, :data:`NOOP`, :func:`as_obs`.
:mod:`~repro.obs.export`
    The JSON exporter for registries, tracers and report documents.
:mod:`~repro.obs.report`
    Campaign run-report assembly (the ``--json`` / ``report`` CLI payload).
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Clock, ManualClock, PerfClock, SimClock, SpanRecord, Tracer
from .handle import NOOP, Obs, as_obs
from .export import jsonable, render_json, write_json
from .report import (REPORT_SCHEMA, campaign_run_report,
                     canonical_run_report, render_run_report)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Clock",
    "PerfClock",
    "SimClock",
    "ManualClock",
    "SpanRecord",
    "Tracer",
    "Obs",
    "NOOP",
    "as_obs",
    "jsonable",
    "render_json",
    "write_json",
    "REPORT_SCHEMA",
    "campaign_run_report",
    "canonical_run_report",
    "render_run_report",
]
