"""Concurrency-safety rule family (SPICE301-SPICE305).

PR 8 made the reproduction a long-lived threaded service: campaign
records behind an ``RLock``, worker threads signalling cancel
``Event``s, an asyncio front-end offloading blocking handlers to
executor threads.  The bug class that corrupts that layer — unguarded
shared state, lock-order inversions, blocking I/O while holding a lock
— is invisible to the determinism and API rules, so this family gives
it the same machine-checked treatment.  The static rules here are the
lexical half of the analysis; ``repro.sanitize`` is the runtime half
(instrumented locks under ``REPRO_SANITIZE=1``).

The rules share one AST walk (:class:`_FunctionScan`) that tracks the
*lexically held lock set* through ``with`` statements, resetting it at
nested ``def``/``lambda`` boundaries (callbacks run later, usually on
another thread, and do not inherit the enclosing lock region).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from .base import FileContext, Rule, Violation, register_rule

__all__ = [
    "GuardedFieldRule",
    "LockOrderRule",
    "BlockingUnderLockRule",
    "BlockingInAsyncRule",
    "UnjoinedThreadRule",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Constructors whose result is a mutual-exclusion primitive.  The
#: ``repro.sanitize`` factories return exactly these (or instrumented
#: wrappers), so routing lock construction through them keeps the
#: static and runtime analyses aligned.
_LOCK_FACTORIES = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "repro.sanitize.make_lock",
    "repro.sanitize.make_rlock",
    "repro.sanitize.make_condition",
})

#: Calls that block the calling thread on I/O or another thread's
#: progress.  Holding a lock across any of these serialises every other
#: thread contending for that lock behind the kernel, and a blocking
#: ``.shutdown(wait=True)`` under a lock the workers also take is a
#: textbook self-deadlock.
_BLOCKING_CALLS = frozenset({
    "os.fsync",
    "os.fdatasync",
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "urllib.request.urlopen",
    "socket.create_connection",
    "socket.getaddrinfo",
    "shutil.copyfileobj",
    # Durable-store writes: tmp-file + write + fsync + rename under the
    # covers — milliseconds of disk latency, not a memory operation.
    "repro.store.index.atomic_write_text",
    "repro.store.index.append_line",
})

#: Container/collection methods that mutate their receiver in place.
#: ``self._events.setdefault(...)`` is a *write* to ``_events`` for
#: guarded-field inference even though the attribute node itself loads.
_MUTATOR_METHODS = frozenset({
    "append", "add", "remove", "discard", "clear", "update", "pop",
    "popitem", "setdefault", "extend", "insert", "appendleft",
})


def _lockish_name(name: str) -> bool:
    """Heuristic: does this identifier name a lock-like object?"""
    lowered = name.lower()
    return "lock" in lowered or "cond" in lowered or lowered == "mutex"


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@dataclass
class _Access:
    attr: str
    write: bool
    node: ast.AST
    held: Tuple[str, ...]


@dataclass
class _Acquire:
    lock: str
    node: ast.AST
    held: Tuple[str, ...]  # locks already held when this one is taken


@dataclass
class _CallSite:
    kind: str  # "self" or "mod"
    name: str
    node: ast.AST
    held: Tuple[str, ...]


@dataclass
class _BlockingCall:
    target: str
    node: ast.AST
    held: Tuple[str, ...]


@dataclass
class _FunctionScan:
    """One function's concurrency-relevant events, with lexical lock state.

    Lock identities are ``"self.X"`` for instance locks and the bare
    name for module/local locks; SPICE302 qualifies them with the class
    name when it assembles the cross-method graph.
    """

    ctx: FileContext
    lock_attrs: FrozenSet[str]
    accesses: List[_Access] = field(default_factory=list)
    acquires: List[_Acquire] = field(default_factory=list)
    calls: List[_CallSite] = field(default_factory=list)
    blocking: List[_BlockingCall] = field(default_factory=list)

    def run(self, fn: _FunctionNode) -> "_FunctionScan":
        for stmt in fn.body:
            self._visit(stmt, ())
        return self

    def _lock_id(self, expr: ast.expr) -> Optional[str]:
        attr = _self_attr(expr)
        if attr is not None:
            if attr in self.lock_attrs or _lockish_name(attr):
                return f"self.{attr}"
            return None
        if isinstance(expr, ast.Name) and _lockish_name(expr.id):
            return expr.id
        return None

    def _visit(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Deferred execution: nested callbacks do not inherit the
            # enclosing lexical lock region.
            for stmt in node.body:
                self._visit(stmt, ())
            return
        if isinstance(node, ast.Lambda):
            self._visit(node.body, ())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._visit(item.context_expr, inner)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, inner)
                lock = self._lock_id(item.context_expr)
                if lock is not None and lock not in inner:
                    self.acquires.append(_Acquire(lock, item.context_expr, inner))
                    inner = inner + (lock,)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, held)
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            attr = _self_attr(node.value)
            if attr is not None:
                self.accesses.append(_Access(attr, True, node, held))
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                self.accesses.append(_Access(attr, write, node, held))
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _handle_call(self, node: ast.Call, held: Tuple[str, ...]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _MUTATOR_METHODS:
                attr = _self_attr(func.value)
                if attr is not None:
                    self.accesses.append(_Access(attr, True, func.value, held))
            attr = _self_attr(func)
            if attr is not None:
                self.calls.append(_CallSite("self", attr, node, held))
            if func.attr == "shutdown":
                self.blocking.append(
                    _BlockingCall(f"{{...}}.{func.attr}", node, held))
        elif isinstance(func, ast.Name):
            self.calls.append(_CallSite("mod", func.id, node, held))
        target = self.ctx.resolve(func)
        if target in _BLOCKING_CALLS:
            self.blocking.append(_BlockingCall(target, node, held))


def _class_lock_attrs(cls: ast.ClassDef, ctx: FileContext) -> FrozenSet[str]:
    """Attributes of ``cls`` that hold mutual-exclusion primitives.

    Primary signal: ``self.X = threading.RLock()`` (or a
    ``repro.sanitize`` factory).  Fallback: a lock-like attribute name,
    so ``self._lock = lock`` (injection) still counts.
    """
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if _lockish_name(attr):
                attrs.add(attr)
            elif (isinstance(value, ast.Call)
                    and ctx.resolve(value.func) in _LOCK_FACTORIES):
                attrs.add(attr)
    return frozenset(attrs)


def _methods(cls: ast.ClassDef) -> List[_FunctionNode]:
    return [n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _scan_file(ctx: FileContext) -> List[Tuple[Optional[str], str, _FunctionScan]]:
    """Scan every top-level function and method: (class, name, scan)."""
    scans: List[Tuple[Optional[str], str, _FunctionScan]] = []
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scans.append(
                (None, node.name,
                 _FunctionScan(ctx, frozenset()).run(node)))
        elif isinstance(node, ast.ClassDef):
            lock_attrs = _class_lock_attrs(node, ctx)
            for fn in _methods(node):
                scans.append(
                    (node.name, fn.name,
                     _FunctionScan(ctx, lock_attrs).run(fn)))
    return scans


@register_rule
class GuardedFieldRule(Rule):
    """Fields written under a class's lock are read under it too."""

    id = "SPICE301"
    name = "guarded field accessed without its lock"
    rationale = (
        "the service layer's coalescing/cancel/DLQ guarantees rest on "
        "every thread seeing campaign state through the owning lock; a "
        "field the class itself writes under `with self._lock` is by "
        "construction shared mutable state, and one unguarded read or "
        "write elsewhere is a data race that corrupts records silently "
        "under load (the exact bug class the runtime sanitizer exists "
        "to catch, made impossible to merge here)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind == "src"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = _class_lock_attrs(node, ctx)
            if not lock_attrs:
                continue
            scans: Dict[str, _FunctionScan] = {}
            for fn in _methods(node):
                scans[fn.name] = _FunctionScan(ctx, lock_attrs).run(fn)
            # Pass 1: infer the guard — fields written while holding one
            # of the class's own locks.  __init__ is construction-time
            # (no concurrent readers exist yet) and never votes.
            guarded: Dict[str, Set[str]] = {}
            for name, scan in scans.items():
                if name == "__init__":
                    continue
                for acc in scan.accesses:
                    if not acc.write or acc.attr in lock_attrs:
                        continue
                    locks = {h for h in acc.held
                             if h.startswith("self.") and h[5:] in lock_attrs}
                    if locks:
                        guarded.setdefault(acc.attr, set()).update(locks)
            if not guarded:
                continue
            # Pass 2: every access to a guarded field must hold (one of)
            # its guard lock(s).
            seen: Set[Tuple[str, int]] = set()
            for name, scan in scans.items():
                if name == "__init__":
                    continue
                for acc in scan.accesses:
                    guards = guarded.get(acc.attr)
                    if not guards or set(acc.held) & guards:
                        continue
                    line = getattr(acc.node, "lineno", 1)
                    if (acc.attr, line) in seen:
                        continue
                    seen.add((acc.attr, line))
                    guard = sorted(guards)[0]
                    verb = "written" if acc.write else "read"
                    yield self.violation(
                        ctx, acc.node,
                        f"'self.{acc.attr}' is guarded by '{guard}' "
                        f"(written under it elsewhere in {node.name}) but "
                        f"{verb} here without holding it",
                    )


@register_rule
class LockOrderRule(Rule):
    """No cycles in the static acquired-while-holding graph."""

    id = "SPICE302"
    name = "lock-order cycle"
    rationale = (
        "deadlock freedom with more than one lock requires a single "
        "global acquisition order; two code paths that take the same "
        "pair of locks in opposite orders (directly, or through a "
        "method call made while holding one) deadlock the service the "
        "first time both paths run concurrently — which under heavy "
        "traffic is minutes, not months, after merge"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind == "src"

    @staticmethod
    def _label(cls: Optional[str], lock: str) -> str:
        if lock.startswith("self.") and cls is not None:
            return f"{cls}.{lock[5:]}"
        return lock

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        scans = _scan_file(ctx)
        if not scans:
            return
        module_funcs = {name for cls, name, _ in scans if cls is None}
        class_methods: Dict[str, Set[str]] = {}
        for cls, name, _ in scans:
            if cls is not None:
                class_methods.setdefault(cls, set()).add(name)

        def fn_key(cls: Optional[str], name: str) -> str:
            return f"{cls}.{name}" if cls is not None else name

        def resolve_call(cls: Optional[str], call: _CallSite) -> Optional[str]:
            if call.kind == "self" and cls is not None:
                if call.name in class_methods.get(cls, ()):
                    return fn_key(cls, call.name)
            elif call.kind == "mod" and call.name in module_funcs:
                return call.name
            return None

        # Per-function lock summaries, then a fixpoint over the call
        # graph: eventual[f] = locks f may acquire, transitively.
        lexical: Dict[str, Set[str]] = {}
        callees: Dict[str, Set[str]] = {}
        for cls, name, scan in scans:
            key = fn_key(cls, name)
            lexical.setdefault(key, set()).update(
                self._label(cls, a.lock) for a in scan.acquires)
            callees.setdefault(key, set()).update(
                c for c in (resolve_call(cls, call) for call in scan.calls)
                if c is not None)
        eventual = {k: set(v) for k, v in lexical.items()}
        changed = True
        while changed:
            changed = False
            for key, callee_keys in callees.items():
                for callee in callee_keys:
                    extra = eventual.get(callee, set()) - eventual[key]
                    if extra:
                        eventual[key].update(extra)
                        changed = True

        # Edges: "b acquired while a held", anchored at the first site.
        edges: Dict[Tuple[str, str], ast.AST] = {}

        def add_edge(a: str, b: str, node: ast.AST) -> None:
            if a != b:
                edges.setdefault((a, b), node)

        for cls, name, scan in scans:
            for acq in scan.acquires:
                for h in acq.held:
                    add_edge(self._label(cls, h),
                             self._label(cls, acq.lock), acq.node)
            for call in scan.calls:
                if not call.held:
                    continue
                callee = resolve_call(cls, call)
                if callee is None:
                    continue
                for h in call.held:
                    for lock in eventual.get(callee, ()):
                        add_edge(self._label(cls, h), lock, call.node)

        adjacency: Dict[str, Set[str]] = {}
        for a, b in edges:
            adjacency.setdefault(a, set()).add(b)

        def reaches(start: str, goal: str) -> bool:
            stack, visited = [start], {start}
            while stack:
                current = stack.pop()
                if current == goal:
                    return True
                for nxt in adjacency.get(current, ()):
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)
            return False

        for (a, b), node in sorted(
                edges.items(),
                key=lambda kv: (getattr(kv[1], "lineno", 0), kv[0])):
            if reaches(b, a):
                yield self.violation(
                    ctx, node,
                    f"acquiring '{b}' while holding '{a}' closes a "
                    f"lock-order cycle ('{b}' is also ordered before "
                    f"'{a}' on another path); pick one global order",
                )


@register_rule
class BlockingUnderLockRule(Rule):
    """No blocking I/O or thread joins inside a held-lock region."""

    id = "SPICE303"
    name = "blocking call under a held lock"
    rationale = (
        "a lock held across fsync/sleep/subprocess/socket work turns "
        "every contending thread's memory-speed critical section into a "
        "disk- or network-speed one (the service's p99 lives and dies "
        "on this), and a blocking executor shutdown under a lock the "
        "workers also take is a self-deadlock; do the I/O outside the "
        "lock, or snapshot state under the lock and write after release"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind == "src"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for _cls, _name, scan in _scan_file(ctx):
            for call in scan.blocking:
                if not call.held:
                    continue
                held = ", ".join(f"'{h}'" for h in call.held)
                yield self.violation(
                    ctx, call.node,
                    f"blocking call '{call.target}' while holding "
                    f"{held}; release the lock before blocking",
                )


#: What SPICE304 additionally refuses on the event-loop thread: plain
#: ``open`` is synchronous disk I/O even though it is not in the
#: under-a-lock blocking set (the service state layer opens files under
#: its lock deliberately, on executor threads).
_ASYNC_BLOCKING_NAMES = frozenset({"open"})


@register_rule
class BlockingInAsyncRule(Rule):
    """``async def`` bodies never call blocking functions directly."""

    id = "SPICE304"
    name = "blocking call on the event loop"
    rationale = (
        "the asyncio front-end multiplexes every connection on one "
        "thread; a single time.sleep/open/fsync/subprocess call in an "
        "async def body freezes all concurrent requests for its "
        "duration — service/http.py's discipline is to hand blocking "
        "work to loop.run_in_executor (or asyncio.to_thread) and this "
        "rule keeps new handlers honest"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind == "src"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for stmt in node.body:
                yield from self._check_async_body(ctx, stmt)

    def _check_async_body(self, ctx: FileContext, node: ast.AST) -> Iterator[Violation]:
        # Nested defs/lambdas are the executor-offload idiom: skip them.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            target = ctx.resolve(node.func)
            if target is None and isinstance(node.func, ast.Name):
                if node.func.id in _ASYNC_BLOCKING_NAMES:
                    target = node.func.id
            if target in _BLOCKING_CALLS or target in _ASYNC_BLOCKING_NAMES:
                yield self.violation(
                    ctx, node,
                    f"'{target}' blocks the event loop; route it through "
                    f"loop.run_in_executor(...) or asyncio.to_thread(...)",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._check_async_body(ctx, child)


@register_rule
class UnjoinedThreadRule(Rule):
    """Threads are joined somewhere, or explicitly daemonized."""

    id = "SPICE305"
    name = "thread without join path or daemon rationale"
    rationale = (
        "a non-daemon thread nobody joins outlives its owner: shutdown "
        "hangs waiting on it, tests leak it into the next test, and "
        "its last writes race teardown; every threading.Thread needs "
        "either a join on some code path in its module or an explicit "
        "daemon= decision at construction (which is the author stating "
        "'this thread may be killed mid-flight and that is safe')"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind == "src"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        has_join = any(
            isinstance(node, ast.Attribute) and node.attr == "join"
            and not isinstance(node.value, ast.Constant)  # "sep".join noise
            for node in ast.walk(ctx.tree))
        has_daemon_assign = any(
            isinstance(node, ast.Attribute) and node.attr == "daemon"
            and isinstance(node.ctx, ast.Store)
            for node in ast.walk(ctx.tree))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) != "threading.Thread":
                continue
            if any(kw.arg == "daemon" for kw in node.keywords):
                continue  # explicit decision at the construction site
            if has_join or has_daemon_assign:
                continue
            yield self.violation(
                ctx, node,
                "threading.Thread(...) with no join() anywhere in this "
                "module and no daemon= decision; join it on shutdown or "
                "pass daemon= explicitly",
            )
