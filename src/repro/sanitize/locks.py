"""Instrumented locking primitives and the sanitizer that watches them.

The runtime half of the concurrency-safety analysis (the static half is
``repro.lint.rules_concurrency``).  When a :class:`Sanitizer` is
installed, the :func:`make_lock` / :func:`make_rlock` /
:func:`make_condition` factories return wrappers that record, per
thread, the stack of currently-held locks:

* every *first* acquisition of lock B while lock A is held adds the
  edge ``A -> B`` to a global lock-order graph; an acquisition whose
  reverse edge already exists is a **lock-order inversion** (the ABBA
  deadlock pattern) and is recorded with both witnesses' stacks;
* a lock held longer than the configured threshold is recorded as a
  **long hold** on release (a latency smell, not a correctness bug —
  the report renders these as warnings and CI does not fail on them).

When no sanitizer is installed the factories return the plain
``threading`` primitives — zero overhead, byte-identical behavior — so
production code routes every lock through them unconditionally.

The sanitizer's own bookkeeping uses one *plain* ``threading.Lock``
(never instrumented, never held while calling out), so it cannot
participate in the graphs it builds.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import SanitizeError
from ..obs import Obs

__all__ = [
    "Sanitizer",
    "SanitizedLock",
    "enabled",
    "current",
    "install",
    "uninstall",
    "activated",
    "make_lock",
    "make_rlock",
    "make_condition",
]

#: Environment switch: any of these values installs a sanitizer lazily
#: at the first factory call (how the CI smoke job and `repro serve`
#: opt in without code changes).
_ENV_FLAG = "REPRO_SANITIZE"
_ENV_TRUE = frozenset({"1", "true", "yes", "on"})

#: Default long-hold threshold.  Generous on purpose: the inline runner
#: legitimately holds the service lock for a whole (tiny) campaign, and
#: long holds are a latency report, not a CI failure.
_DEFAULT_LONG_HOLD_S = 5.0

#: Frames per recorded stack; enough to name the call path without
#: bloating reports.
_STACK_DEPTH = 8


def _capture_stack() -> List[str]:
    """The caller's stack as ``path:line func`` strings, innermost last,
    with sanitizer-internal frames dropped."""
    here = os.path.dirname(__file__)
    frames = [
        f"{frame.filename}:{frame.lineno} {frame.name}"
        for frame in traceback.extract_stack()
        if not frame.filename.startswith(here)
    ]
    return frames[-_STACK_DEPTH:]


@dataclass
class _EdgeWitness:
    """First observation of one ``first -> second`` ordering."""

    count: int
    thread: str
    stack: List[str]


@dataclass
class _Held:
    label: str
    t0: float


class Sanitizer:
    """Collects lock-order and hold-time evidence from sanitized locks.

    Thread-safe; one instance watches every lock built while it is
    installed.  Findings accumulate until :meth:`snapshot` (typically at
    pytest session teardown or CLI exit).
    """

    def __init__(self, *, long_hold_s: Optional[float] = None) -> None:
        if long_hold_s is None:
            env = os.environ.get("REPRO_SANITIZE_LONG_HOLD_S", "")
            long_hold_s = float(env) if env else _DEFAULT_LONG_HOLD_S
        self.long_hold_s = float(long_hold_s)
        self.obs = Obs()
        self._internal = threading.Lock()  # plain on purpose; see module doc
        self._tls = threading.local()
        self._edges: Dict[Tuple[str, str], _EdgeWitness] = {}
        self._inversions: List[Dict[str, Any]] = []
        self._inverted_pairs: set[Tuple[str, str]] = set()
        self._long_holds: List[Dict[str, Any]] = []
        self._acquisitions: Dict[str, int] = {}

    # -- per-thread stack ------------------------------------------------------

    def _stack(self) -> List[_Held]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- events ----------------------------------------------------------------

    def on_acquire(self, label: str) -> None:
        """Record that the calling thread acquired ``label``."""
        stack = self._stack()
        first_level = all(h.label != label for h in stack)
        thread = threading.current_thread().name
        if first_level:
            frames = _capture_stack()
            with self._internal:
                self._acquisitions[label] = \
                    self._acquisitions.get(label, 0) + 1
                for held in stack:
                    self._add_edge(held.label, label, thread, frames)
            self.obs.inc("sanitize.acquisitions")
        stack.append(_Held(label, time.monotonic()))

    def _add_edge(self, first: str, second: str, thread: str,
                  frames: List[str]) -> None:
        """Record ``first -> second``; detect an existing reverse edge.
        Caller holds ``self._internal``."""
        witness = self._edges.get((first, second))
        if witness is not None:
            witness.count += 1
            return
        self._edges[(first, second)] = _EdgeWitness(1, thread, frames)
        reverse = self._edges.get((second, first))
        if reverse is None:
            return
        pair = (min(first, second), max(first, second))
        if pair in self._inverted_pairs:
            return
        self._inverted_pairs.add(pair)
        self._inversions.append({
            "held": first,
            "acquiring": second,
            "thread": thread,
            "stack": frames,
            "conflict_thread": reverse.thread,
            "conflict_stack": reverse.stack,
        })
        self.obs.inc("sanitize.inversions")

    def on_release(self, label: str) -> None:
        """Record that the calling thread released ``label`` once."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].label == label:
                held = stack.pop(index)
                break
        else:
            raise SanitizeError(
                f"thread {threading.current_thread().name!r} released "
                f"{label!r} which it does not hold")
        if any(h.label == label for h in stack):
            return  # still held re-entrantly; outermost release times it
        duration = time.monotonic() - held.t0
        if duration > self.long_hold_s:
            with self._internal:
                if len(self._long_holds) < 100:  # bound report size
                    self._long_holds.append({
                        "label": label,
                        "held_s": duration,
                        "thread": threading.current_thread().name,
                        "stack": _capture_stack(),
                    })
            self.obs.inc("sanitize.long_holds")

    def release_all(self, label: str) -> int:
        """Pop every recursion level of ``label`` (Condition.wait path);
        returns how many levels were held."""
        levels = 0
        while any(h.label == label for h in self._stack()):
            self.on_release(label)
            levels += 1
        return levels

    # -- results ---------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True while no lock-order inversion has been observed."""
        with self._internal:
            return not self._inversions

    def snapshot(self) -> Dict[str, Any]:
        """A stable, JSON-ready copy of everything observed so far."""
        with self._internal:
            return {
                "long_hold_threshold_s": self.long_hold_s,
                "counters": {
                    "acquisitions": sum(self._acquisitions.values()),
                    "locks": len(self._acquisitions),
                    "edges": len(self._edges),
                    "inversions": len(self._inversions),
                    "long_holds": len(self._long_holds),
                },
                "locks": [
                    {"label": label, "acquisitions": count}
                    for label, count in sorted(self._acquisitions.items())
                ],
                "edges": [
                    {"first": first, "second": second, "count": w.count}
                    for (first, second), w in sorted(self._edges.items())
                ],
                "inversions": [dict(inv) for inv in self._inversions],
                "long_holds": [dict(lh) for lh in self._long_holds],
            }


class SanitizedLock:
    """A ``threading.Lock``/``RLock`` that reports to a :class:`Sanitizer`.

    Duck-types the lock protocol (``acquire``/``release``/context
    manager) plus the private hooks ``threading.Condition`` looks for,
    so :func:`make_condition` can wrap one.
    """

    def __init__(self, label: str, sanitizer: Sanitizer, *,
                 reentrant: bool) -> None:
        self.label = label
        self._san = sanitizer
        self._reentrant = reentrant
        self._lock: Any = (threading.RLock() if reentrant
                           else threading.Lock())

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = bool(self._lock.acquire(blocking, timeout))
        if acquired:
            self._san.on_acquire(self.label)
        return acquired

    def release(self) -> None:
        self._san.on_release(self.label)
        self._lock.release()

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        locked = getattr(self._lock, "locked", None)
        return bool(locked()) if locked is not None else False

    # -- threading.Condition integration ---------------------------------------
    # Condition(lock=...) probes for these; delegating keeps re-entrant
    # wait semantics while the sanitizer's held-stack tracks the full
    # release/reacquire cycle.

    def _is_owned(self) -> bool:
        inner = getattr(self._lock, "_is_owned", None)
        if inner is not None:
            return bool(inner())
        if self._lock.acquire(False):
            self._lock.release()
            return False
        return True

    def _release_save(self) -> Tuple[Any, int]:
        levels = self._san.release_all(self.label)
        inner = getattr(self._lock, "_release_save", None)
        state = inner() if inner is not None else self._lock.release()
        return (state, levels)

    def _acquire_restore(self, saved: Tuple[Any, int]) -> None:
        state, levels = saved
        inner = getattr(self._lock, "_acquire_restore", None)
        if inner is not None:
            inner(state)
        else:
            self._lock.acquire()
        for _ in range(max(1, levels)):
            self._san.on_acquire(self.label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SanitizedLock {self.label} reentrant={self._reentrant}>"


# -- module state: the installed sanitizer -------------------------------------

_STATE = threading.Lock()
_ACTIVE: Optional[Sanitizer] = None
_INSTANCE_COUNTS: Dict[str, int] = {}


def _env_wants_sanitize() -> bool:
    return os.environ.get(_ENV_FLAG, "").lower() in _ENV_TRUE


def enabled() -> bool:
    """True when a sanitizer is installed (or the env var demands one)."""
    return _ACTIVE is not None or _env_wants_sanitize()


def current() -> Optional[Sanitizer]:
    """The installed sanitizer, installing one first if ``REPRO_SANITIZE``
    asks for it; ``None`` otherwise."""
    global _ACTIVE
    with _STATE:
        if _ACTIVE is None and _env_wants_sanitize():
            _ACTIVE = Sanitizer()
        return _ACTIVE


def install(sanitizer: Optional[Sanitizer] = None) -> Sanitizer:
    """Install (and return) the process-wide sanitizer.

    Locks built by the factories *after* this call are instrumented;
    locks built before it keep their plain primitives (install early —
    the pytest fixture does it at session start).
    """
    global _ACTIVE
    with _STATE:
        if sanitizer is None:
            sanitizer = Sanitizer()
        _ACTIVE = sanitizer
        return sanitizer


def uninstall() -> Optional[Sanitizer]:
    """Remove and return the installed sanitizer (None when absent).
    Already-built instrumented locks keep reporting to it."""
    global _ACTIVE
    with _STATE:
        previous, _ACTIVE = _ACTIVE, None
        return previous


@contextmanager
def activated(*, long_hold_s: Optional[float] = None) -> Iterator[Sanitizer]:
    """Scoped install/restore, for tests::

        with sanitize.activated() as san:
            ...build locks, run threads...
        assert san.clean
    """
    global _ACTIVE
    with _STATE:
        previous = _ACTIVE
        sanitizer = Sanitizer(long_hold_s=long_hold_s)
        _ACTIVE = sanitizer
    try:
        yield sanitizer
    finally:
        with _STATE:
            _ACTIVE = previous


def _instance_label(name: str) -> str:
    """``name#N`` with a per-name monotonic N: distinct lock *instances*
    get distinct graph nodes (two runners' locks must not alias), while
    the same construction order yields the same labels run over run."""
    with _STATE:
        count = _INSTANCE_COUNTS.get(name, 0) + 1
        _INSTANCE_COUNTS[name] = count
    return f"{name}#{count}"


def make_lock(name: str) -> Any:
    """A mutex: plain ``threading.Lock`` normally, instrumented under an
    installed sanitizer.  ``name`` labels the lock in reports."""
    sanitizer = current()
    if sanitizer is None:
        return threading.Lock()
    return SanitizedLock(_instance_label(name), sanitizer, reentrant=False)


def make_rlock(name: str) -> Any:
    """Re-entrant variant of :func:`make_lock`."""
    sanitizer = current()
    if sanitizer is None:
        return threading.RLock()
    return SanitizedLock(_instance_label(name), sanitizer, reentrant=True)


def make_condition(name: str) -> Any:
    """A condition variable over a (sanitized when active) re-entrant
    lock.  Waiting releases every recursion level and the sanitizer's
    held-stack follows it through the release/reacquire cycle."""
    sanitizer = current()
    if sanitizer is None:
        return threading.Condition()
    return threading.Condition(
        SanitizedLock(_instance_label(name), sanitizer, reentrant=True))
