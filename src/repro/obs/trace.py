"""Structured tracing: spans and events on an explicit clock.

A :class:`Tracer` records :class:`SpanRecord` entries — ``(name, path,
start, end, attrs)`` — where ``path`` is the tuple of enclosing span names,
so nesting survives into flat exports.  The clock is pluggable:

* :class:`PerfClock` (default) reads ``time.perf_counter`` — real host
  paths (running a pulling ensemble, a CLI command);
* :class:`SimClock` reads the ``now`` attribute of a discrete-event loop —
  inside :mod:`repro.grid` spans carry *simulated hours*, which makes trace
  timestamps exactly reproducible run to run;
* :class:`ManualClock` is a settable clock for tests and for loops that
  track logical time in a local variable (the IMD session).

A span may override the tracer's clock per call (``tracer.span(name,
clock=sim_clock)``), which is how one trace mixes host-time phases with
sim-time grid activity.  Records append on span *exit*, so a parent
appears after its children; order within the list is completion order.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Clock", "PerfClock", "SimClock", "ManualClock",
           "SpanRecord", "Tracer"]


class Clock:
    """Minimal clock interface: ``now()`` in some unit."""

    unit = "s"

    def now(self) -> float:  # pragma: no cover - interface
        """Current time in this clock's ``unit``."""
        raise NotImplementedError


class PerfClock(Clock):
    """Host wall clock (``time.perf_counter``), seconds."""

    unit = "s"

    def now(self) -> float:
        """Monotonic host time in seconds."""
        return time.perf_counter()


class SimClock(Clock):
    """Reads simulated time off any object with a ``now`` attribute —
    duck-typed so :mod:`repro.obs` never imports :mod:`repro.grid`.
    Grid loops tick in hours."""

    unit = "h"

    def __init__(self, loop: Any) -> None:
        self._loop = loop

    def now(self) -> float:
        """The wrapped loop's current simulated time (hours)."""
        return float(self._loop.now)


class ManualClock(Clock):
    """A clock the caller advances; for tests and logical-time loops."""

    unit = "s"

    def __init__(self, start: float = 0.0) -> None:
        self.time = float(start)

    def now(self) -> float:
        """Current manual time (only moves via :meth:`advance`)."""
        return self.time

    def advance(self, dt: float) -> None:
        """Move the clock forward by ``dt``."""
        self.time += float(dt)


@dataclass
class SpanRecord:
    """One completed span (or zero-duration event)."""

    name: str
    path: Tuple[str, ...]
    start: float
    end: float
    unit: str = "s"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-ready view with ``path`` flattened to ``a/b/c``."""
        return {
            "name": self.name,
            "path": "/".join(self.path),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "unit": self.unit,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects span/event records against a default clock."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else PerfClock()
        self.records: List[SpanRecord] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str, *, clock: Optional[Clock] = None,
             **attrs: Any) -> Iterator[SpanRecord]:
        """Record a named span around a ``with`` block.

        ``clock`` (keyword-only, reserved) overrides the tracer's default
        clock for this span; all other keyword arguments become the span's
        attributes.  Yields the (incomplete) record so the body may attach
        result attributes before exit.
        """
        clk = clock if clock is not None else self.clock
        record = SpanRecord(
            name=name,
            path=tuple(self._stack) + (name,),
            start=clk.now(),
            end=float("nan"),
            unit=clk.unit,
            attrs=dict(attrs),
        )
        self._stack.append(name)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = clk.now()
            self.records.append(record)

    def event(self, name: str, *, clock: Optional[Clock] = None,
              **attrs: Any) -> SpanRecord:
        """Record a zero-duration point event at the current time."""
        clk = clock if clock is not None else self.clock
        now = clk.now()
        record = SpanRecord(
            name=name,
            path=tuple(self._stack) + (name,),
            start=now,
            end=now,
            unit=clk.unit,
            attrs=dict(attrs),
        )
        self.records.append(record)
        return record

    # -- queries --------------------------------------------------------------

    def named(self, name: str) -> List[SpanRecord]:
        """All records called ``name``, in completion order."""
        return [r for r in self.records if r.name == name]

    def total_duration(self, name: str) -> float:
        """Summed duration of all spans called ``name``."""
        return sum(r.duration for r in self.named(name))
