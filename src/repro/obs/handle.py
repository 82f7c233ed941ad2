"""The ``obs=`` handle and its no-op default.

The package-wide instrumentation convention is an *explicit handle, no
globals*: any component that can be observed takes an optional ``obs=``
keyword, normalizes it with :func:`as_obs`, and records through it.  The
default is :data:`NOOP`, a null handle whose instruments discard every
write — so uninstrumented call sites pay one attribute check and nothing
else, keep no state, and (critically) leave determinism untouched, since
observation never draws random numbers or schedules events.

Hot loops should guard with ``if obs.enabled:`` before composing metric
names, which keeps the uninstrumented path allocation-free.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from typing import Any, Iterator, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Clock, SpanRecord, Tracer

__all__ = ["Obs", "NOOP", "as_obs"]


class Obs:
    """Bundle of a metrics registry and a tracer — the instrumentation
    handle threaded through the system.

    Parameters
    ----------
    clock:
        Default clock for the tracer.
    """

    enabled: bool = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock)

    # Thin conveniences so call sites read as one line.

    def span(self, name: str, *, clock: Optional[Clock] = None,
             **attrs: Any) -> AbstractContextManager[SpanRecord]:
        """Context manager timing a named span (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, clock=clock, **attrs)

    def event(self, name: str, *, clock: Optional[Clock] = None,
              **attrs: Any) -> SpanRecord:
        """Record an instantaneous event (a zero-duration span)."""
        return self.tracer.event(name, clock=clock, **attrs)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        self.metrics.observe(name, value)


class _NullCounter(Counter):
    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class _NullRegistry(MetricsRegistry):
    """Registers nothing; hands back shared write-discarding instruments."""

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def histogram(self, name: str) -> Histogram:
        return self._histogram


class _NullTracer(Tracer):
    """Keeps no records and allocates nothing per span."""

    def __init__(self) -> None:
        super().__init__()
        self._record = SpanRecord(name="null", path=("null",),
                                  start=0.0, end=0.0)

    @contextmanager
    def span(self, name: str, *, clock: Optional[Clock] = None,
             **attrs: Any) -> Iterator[SpanRecord]:
        yield self._record

    def event(self, name: str, *, clock: Optional[Clock] = None,
              **attrs: Any) -> SpanRecord:
        return self._record


class _NullObs(Obs):
    """The do-nothing handle; a process-wide singleton is fine because it
    holds no mutable state at all."""

    enabled: bool = False

    def __init__(self) -> None:
        self.metrics = _NullRegistry()
        self.tracer = _NullTracer()


#: Shared no-op handle used whenever a component gets ``obs=None``.
NOOP = _NullObs()


def as_obs(obs: Optional[Obs]) -> Obs:
    """Normalize an optional handle: ``None`` becomes :data:`NOOP`."""
    return obs if obs is not None else NOOP
