"""Span tracer installed from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited: class methods are patched on the class,
module functions on every ``repro`` module global that is bound to them
(the defining module, the package re-export, and ``from .x import f``
copies alike), and ``os.fsync`` on ``os``.  ``uninstall`` restores all of
it.

A span is ``(id, parent id, name, ident, thread, start, end, self
seconds, root start)``; ``ident`` is the campaign id where the call
carries one, inherited from the parent span otherwise, and ``root start``
is when the outermost span of its call stack began.  Spans stay in
memory.  Callables marked ``aggregate`` (one call per MD step) keep only
a call count and a self-time total.

Self time is a span's duration minus the part of it that child spans on
the same thread cover, so the self times under one root add up to the
root's duration exactly.

Wall-clock self time on a thread that competes with the campaign worker
for the interpreter lock is mostly waiting.  ``family_totals`` therefore
splits the spans: those on the path that blocks the client are summed per
family; request handlers that run while a campaign executes (the
client's polling) or that long-poll are counted apart as
``service.api.poll``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (id, parent id, name, ident, thread name, start, end, self_s, root start)
Span = Tuple[int, Optional[int], str, Optional[str], str, float, float,
             float, float]
ID, PARENT, NAME, IDENT, THREAD, START, END, SELF, ROOT_START = range(9)

#: The campaign worker thread (``CampaignRunner``'s single-thread pool).
RUNNER_THREAD_PREFIX = "spice-service"


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` + ``qualname`` -> span ``name``."""

    module: str
    qualname: str
    name: str
    aggregate: bool = False
    label: Optional[Callable[..., str]] = None
    ident: Optional[Callable[..., Optional[str]]] = None


class _Frame:
    __slots__ = ("ident", "id", "root_start", "child_s")

    def __init__(self, ident: Optional[str], span_id: Optional[int],
                 root_start: float) -> None:
        self.ident = ident
        self.id = span_id
        self.root_start = root_start
        self.child_s = 0.0


class _ThreadState:
    """Per-thread open-span stack and the totals of aggregated callables
    (merged when read, so the hot path takes no lock)."""

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        self.stack: List[_Frame] = []
        self.aggregated: Dict[str, List[float]] = {}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Span names whose target no longer exists in the program; their
        #: families report zero and ``bench.trace_missing_targets`` counts
        #: them, so a refactor shows up instead of breaking the benchmark.
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- wrapping -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def instrument(self, func: Callable[..., Any], name: str, *,
                   aggregate: bool = False,
                   label: Optional[Callable[..., str]] = None,
                   ident: Optional[Callable[..., Optional[str]]] = None
                   ) -> Callable[..., Any]:
        """``func`` wrapped so every call is one span named ``name``
        (or ``label(*args, **kwargs)`` when the name depends on the call)."""
        clock, spans, ids = self.clock, self.spans, self._ids

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_name = label(*args, **kwargs) if label else name
            span_ident = ident(*args, **kwargs) if ident else None
            if span_ident is None and parent is not None:
                span_ident = parent.ident
            start = clock()
            frame = _Frame(span_ident, None if aggregate else next(ids),
                           start if parent is None else parent.root_start)
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                if aggregate:
                    total = state.aggregated.setdefault(span_name, [0, 0.0])
                    total[0] += 1
                    total[1] += duration - frame.child_s
                else:
                    spans.append((frame.id,
                                  parent.id if parent is not None else None,
                                  span_name, span_ident, state.thread,
                                  start, end, duration - frame.child_s,
                                  frame.root_start))

        return wrapper

    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                owner: Any = module
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                continue
            options = {"aggregate": target.aggregate, "label": target.label,
                       "ident": target.ident}
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self.instrument(raw.__func__, target.name, **options))
            else:
                wrapped = self.instrument(raw, target.name, **options)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            # A module function: rebind every global of the same top-level
            # package that holds it, so `from .x import f` call sites are
            # traced too.
            package = target.module.split(".")[0]
            for name, mod in list(sys.modules.items()):
                if mod is not None and name.split(".")[0] == package and \
                        getattr(mod, "__dict__", {}).get(attr) is raw:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # was inherited
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def aggregated(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds) of the aggregated callables,
        summed over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s) in state.aggregated.items():
                total = merged.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += self_s
        return {name: (int(calls), self_s)
                for name, (calls, self_s) in merged.items()}


# -- what the benchmark wraps ---------------------------------------------------


def _campaign_of_request(app: Any, request: Any) -> Optional[str]:
    parts = [p for p in request.path.split("/") if p]
    return parts[2] if len(parts) > 2 and parts[1] == "campaigns" else None


def _handle_label(app: Any, request: Any) -> str:
    # A long-poll sleeps while the runner thread works; its self time is
    # waiting, not work, so it is kept out of `service.api.handle`.
    waits = request.query.get("wait") in ("1", "true") or \
        request.query.get("stream") in ("1", "true")
    return "service.api.longpoll" if waits else "service.api.handle"


def _campaign_arg(state: Any, campaign_id: str, *args: Any,
                  **kwargs: Any) -> str:
    return campaign_id


_STATE_METHODS = ("append_event", "transition", "create", "save_result",
                  "load_result", "read_events", "get")
_STATE_METHODS_BY_CAMPAIGN = ("append_event", "transition", "read_events",
                              "get")

TARGETS: Tuple[Target, ...] = (
    Target("repro.smd.ensemble", "run_pulling_ensemble",
           "smd.ensemble.run_pulling_ensemble"),
    Target("repro.smd.ensemble3d", "run_pulling_ensemble_3d",
           "smd.ensemble3d.run_pulling_ensemble_3d"),
    Target("os", "fsync", "io.fsync"),
    Target("repro.store.sharded", "ShardedResultStore.put",
           "store.sharded.put"),
    Target("repro.store.sharded", "ShardedResultStore.get",
           "store.sharded.get"),
    Target("repro.store.sharded", "ShardedResultStore.fingerprints",
           "store.sharded.fingerprints"),
    Target("repro.store.fingerprint", "task_fingerprint",
           "store.fingerprint.task_fingerprint"),
    *(Target("repro.service.state", f"ServiceState.{method}",
             f"service.state.{method}",
             ident=(_campaign_arg if method in _STATE_METHODS_BY_CAMPAIGN
                    else None))
      for method in _STATE_METHODS),
    Target("repro.service.runner", "CampaignRunner.submit",
           "service.runner.submit"),
    Target("repro.workflow.streaming", "run_streamed_study",
           "workflow.streaming.run_streamed_study"),
    Target("repro.core.pmf", "estimate_pmf", "core.estimate_pmf"),
    Target("repro.service.api", "ServiceApp.handle", "service.api.handle",
           label=_handle_label, ident=_campaign_of_request),
    Target("repro.service.auth", "AuthRegistry.authenticate",
           "service.auth.authenticate"),
    Target("repro.service.spec", "CampaignSpec.from_dict",
           "service.spec.from_dict"),
    Target("repro.md.engine", "Simulation.step", "md.simulation.step"),
    Target("repro.md.engine", "Simulation.compute_forces",
           "md.simulation.compute_forces", aggregate=True),
    Target("repro.md.neighborlist", "NeighborList.pairs",
           "md.neighborlist.pairs", aggregate=True),
    Target("repro.smd.pulling", "SMDPullingForce.compute",
           "smd.pulling.compute", aggregate=True),
)

#: Span families reported as ``<name>.calls`` and ``<name>.self_s``.
FAMILIES: Tuple[str, ...] = tuple(
    dict.fromkeys([t.name for t in TARGETS] + ["service.api.poll"]))


# -- derived layer numbers ------------------------------------------------------

Window = Tuple[float, float]

_HANDLER_NAMES = ("service.api.handle", "service.api.longpoll")


def run_windows(spans: Sequence[Span]) -> List[Tuple[Window, float]]:
    """Per campaign executed: ``((start, end), glue seconds)``.

    The window runs from the campaign's first ``transition`` span on the
    worker thread (-> running) to its last (-> terminal).  Glue is the
    part of it no root span covers: model construction, task-plan
    building, result assembly and the other runner code no wrapped
    callable sees — reported as ``service.runner.run.self_s``.
    """
    by_thread: Dict[str, List[Span]] = {}
    for span in spans:
        if span[START] == span[ROOT_START] and \
                span[THREAD].startswith(RUNNER_THREAD_PREFIX):
            by_thread.setdefault(span[THREAD], []).append(span)
    out: List[Tuple[Window, float]] = []
    for roots in by_thread.values():
        roots.sort(key=lambda s: s[START])
        campaigns: Dict[str, List[Span]] = {}
        current: Optional[str] = None
        for span in roots:
            # Roots that carry no campaign id (run_streamed_study, the
            # estimator) belong to the campaign whose transition came last:
            # the worker thread runs one campaign at a time.
            if span[IDENT] is not None:
                current = span[IDENT]
            if current is not None:
                campaigns.setdefault(current, []).append(span)
        for members in campaigns.values():
            edges = [s for s in members
                     if s[NAME] == "service.state.transition"]
            if not edges:
                continue
            start, end = edges[0][START], edges[-1][END]
            covered = sum(s[END] - s[START] for s in members
                          if s[START] >= start and s[END] <= end)
            out.append(((start, end), (end - start) - covered))
    return sorted(out)


def in_windows(moment: float, windows: Sequence[Window]) -> bool:
    return any(start <= moment < end for start, end in windows)


def family_totals(spans: Sequence[Span],
                  aggregated: Dict[str, Tuple[int, float]],
                  windows: Sequence[Window]
                  ) -> Dict[str, Tuple[int, float]]:
    """name -> (calls, self seconds) on the path that blocks the client.

    A call stack rooted off the worker thread that began inside a run
    window, or whose root is a long-poll, is the client's polling: its
    root is counted under ``service.api.poll`` with its whole duration (a
    wait, not work) and the spans beneath it are left out.
    """
    totals: Dict[str, List[float]] = {
        name: [calls, self_s] for name, (calls, self_s) in aggregated.items()}
    longpoll_roots = {(s[THREAD], s[ROOT_START]) for s in spans
                      if s[NAME] == "service.api.longpoll"}
    for span in spans:
        on_worker = span[THREAD].startswith(RUNNER_THREAD_PREFIX)
        polling = not on_worker and (
            (span[THREAD], span[ROOT_START]) in longpoll_roots
            or in_windows(span[ROOT_START], windows))
        if not polling:
            name, amount = span[NAME], span[SELF]
        elif span[START] == span[ROOT_START]:
            name, amount = "service.api.poll", span[END] - span[START]
        else:
            continue
        total = totals.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += amount
    return {name: (int(calls), self_s)
            for name, (calls, self_s) in totals.items()}


def handler_durations(spans: Sequence[Span],
                      requests: Sequence[Tuple[str, float, float]]
                      ) -> List[Optional[float]]:
    """For each client request ``(label, start, end)``, in sending order,
    the duration of the ``ServiceApp.handle`` span it contains (closed
    loop: at most one), or ``None`` when it contains none."""
    handles = sorted((s for s in spans if s[NAME] in _HANDLER_NAMES),
                     key=lambda s: s[START])
    out: List[Optional[float]] = []
    cursor = 0
    for _label, start, end in requests:
        while cursor < len(handles) and handles[cursor][START] < start:
            cursor += 1
        if cursor < len(handles) and handles[cursor][END] <= end:
            out.append(handles[cursor][END] - handles[cursor][START])
            cursor += 1
        else:
            out.append(None)
    return out
