"""Campaign execution behind the API: worker threads over the shared store.

The runner is the piece that turns the HTTP surface into the paper's
"many users, one grid" economics:

* Every campaign executes through the existing streaming executor
  (:func:`~repro.workflow.streaming.run_streamed_study`) against **one
  shared content-addressed store**, so any task another tenant already
  computed — same model, protocol, sizing, seed key — is a cache hit, not
  a recomputation.
* Submissions are **coalesced by spec fingerprint**: a spec identical to
  one currently pending/running attaches to that run as a *follower* (one
  computation, N subscribers), and a spec identical to an
  already-completed one is served straight from its persisted result (a
  cache hit that never touches the compute pool).
* Execution is serialized on a single worker thread.  Concurrency lives
  at the API layer (async handlers, long-polls, coalescing); the store's
  write path stays single-writer, which keeps its crash-consistency
  argument exactly as the store module states it.

Progress streaming rides the existing obs metrics: the runner wraps each
run in a :class:`_ProgressObs` whose ``stream.*`` counter increments are
mirrored into the campaign's durable event log, which the API's
``/events`` endpoint long-polls or streams.

Cancellation uses the streaming executor's chaos hook: the per-campaign
fault callback raises :class:`~repro.errors.CampaignInterrupted` before
the next compute attempt, so a cancel lands on a task boundary — every
record already written is durable and the store stays consistent (the
same argument as a process kill, which is what the hook models).
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    CampaignInterrupted,
    LifecycleError,
    QuotaExceededError,
    ServiceError,
)
from ..obs import Obs, as_obs
from ..sanitize import make_rlock
from .auth import Principal
from .spec import CampaignSpec
from .state import CampaignRecord, ServiceState

__all__ = ["RESULT_SCHEMA", "CampaignRunner"]

RESULT_SCHEMA = "repro.service.result/v1"

#: ``stream.*`` counters mirrored into the campaign event log.
_PROGRESS_COUNTERS = ("stream.hits", "stream.computed",
                      "stream.dead_lettered")


class _ProgressObs(Obs):
    """An obs handle that tees ``stream.*`` counter traffic to a callback.

    The streaming executor already increments ``stream.hits`` /
    ``stream.computed`` / ``stream.dead_lettered`` per resolved task; this
    subclass forwards each increment (with running totals) so the runner
    can append progress events without the executor knowing the service
    exists.
    """

    def __init__(self, callback: Callable[[Dict[str, float]], None]) -> None:
        super().__init__()
        self._callback = callback

    def inc(self, name: str, amount: float = 1.0) -> None:
        super().inc(name, amount)
        if name in _PROGRESS_COUNTERS:
            totals = {
                counter.split(".", 1)[1]:
                    (self.metrics.counter(counter).value
                     if counter in self.metrics else 0.0)
                for counter in _PROGRESS_COUNTERS
            }
            self._callback(totals)


class CampaignRunner:
    """Executes submitted campaigns on worker threads over a shared store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.store.ResultStore` every campaign
        memoizes into — the cross-tenant cache.
    state:
        The durable :class:`~repro.service.state.ServiceState` holding
        campaign records, events and results.
    obs:
        Service-level instrumentation; the ``service.*`` metric families
        (submissions, coalesces, cache hits, completions) land here.
    dlq:
        Dead-letter queue shared by every campaign; defaults to
        ``<store-root>/DLQ.jsonl`` so degraded completion is always on.
    retry:
        Per-task retry policy forwarded to the streaming executor;
        defaults to three attempts.
    inline:
        Execute submissions synchronously on the caller's thread instead
        of the worker pool — deterministic single-threaded mode used by
        unit tests and the docs generator.
    task_fault:
        Optional chaos/test hook ``(campaign_id, stream_task, attempt)``
        invoked before every compute attempt (after the cancel check).
    """

    def __init__(self, store: Any, state: ServiceState, *,
                 obs: Optional[Obs] = None, dlq: Any = None,
                 retry: Any = None, inline: bool = False,
                 task_fault: Optional[Callable[[str, Any, int], None]] = None
                 ) -> None:
        from ..resil import DeadLetterQueue, RetryPolicy

        self.store = store
        self.state = state
        self.obs = as_obs(obs)
        self.dlq = dlq if dlq is not None else DeadLetterQueue(
            os.path.join(store.root, "DLQ.jsonl"), obs=obs)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=1e-6)
        self.inline = inline
        self.task_fault = task_fault
        self._lock = make_rlock("service.runner")
        self._cancel_events: Dict[str, threading.Event] = {}
        self._followers: Dict[str, List[str]] = {}
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- submission ------------------------------------------------------------

    def submit(self, spec: CampaignSpec,
               principal: Principal) -> CampaignRecord:
        """Accept one campaign: quota-check, coalesce, persist, schedule.

        Returns the fresh record immediately (state ``pending``, or
        already terminal for a result-cache hit); execution happens on
        the worker thread unless the runner is ``inline``.
        """
        quota = principal.quota
        if self.state.active_count(principal.user) >= \
                quota.max_active_campaigns:
            self._count("service.quota.rejected")
            raise QuotaExceededError(
                f"user {principal.user!r} already has "
                f"{quota.max_active_campaigns} active campaign(s)")
        if spec.n_tasks > quota.max_tasks_per_campaign:
            self._count("service.quota.rejected")
            raise QuotaExceededError(
                f"spec decomposes into {spec.n_tasks} tasks; quota allows "
                f"{quota.max_tasks_per_campaign} per campaign")
        with self._lock:
            self._count("service.campaigns.submitted")
            primary = self._live_primary(spec.fingerprint)
            if primary is not None and primary.terminal:
                # Result-cache hit: an identical spec already finished.
                record = self.state.create(
                    principal.user, spec.as_dict(), spec.fingerprint,
                    coalesced_with=primary.id)
                self.state.transition(
                    record.id, primary.state,
                    detail=f"result cache hit via {primary.id}")
                if primary.result_digest:
                    self.state.set_result_digest(record.id,
                                                 primary.result_digest)
                self._count("service.campaigns.cache_hits")
                return record
            if primary is not None:
                # In-flight duplicate: subscribe to the primary's run.
                record = self.state.create(
                    principal.user, spec.as_dict(), spec.fingerprint,
                    coalesced_with=primary.id)
                self.state.transition(
                    record.id, "running",
                    detail=f"coalesced with {primary.id}")
                self._followers.setdefault(primary.id, []).append(record.id)
                self._count("service.campaigns.coalesced")
                return record
            record = self.state.create(
                principal.user, spec.as_dict(), spec.fingerprint)
            self._cancel_events[record.id] = threading.Event()
            self._schedule(record, spec)
            return record

    def _live_primary(self, fingerprint: str) -> Optional[CampaignRecord]:
        """The record an identical submission should attach to, if any.

        Preference order: an in-flight run (pending/running), then a
        successfully-terminal one (completed/degraded) whose result can
        be served.  Failed and cancelled runs are never reused — the new
        submission becomes a fresh primary and recomputes (cheaply: every
        durable task record is still a store hit).
        """
        candidates = self.state.find_by_spec(fingerprint)
        for record in candidates:
            if record.state in ("pending", "running"):
                return record
        for record in reversed(candidates):
            if record.state in ("completed", "degraded") and \
                    self.state.load_result(fingerprint) is not None:
                return record
        return None

    def _schedule(self, record: CampaignRecord, spec: CampaignSpec) -> None:
        if self.inline:
            self._run(record, spec)
            return
        # Re-entrant on purpose: submit()/retry_dead_letters() already
        # hold the lock; taking it here keeps _executor lock-guarded on
        # every path.  The submit itself happens on the snapshot so no
        # executor call runs under the lock.
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="spice-service")
            executor = self._executor
        executor.submit(self._run_guarded, record, spec)

    # -- execution -------------------------------------------------------------

    def _run_guarded(self, record: CampaignRecord,
                     spec: CampaignSpec) -> None:
        """Worker-thread wrapper: no exception may kill the pool."""
        try:
            self._run(record, spec)
        except Exception as exc:  # pragma: no cover - defensive backstop
            try:
                self.state.set_error(record.id, f"internal: {exc}")
                self.state.transition(record.id, "failed",
                                      detail="internal error")
            except ServiceError:
                pass

    def _run(self, record: CampaignRecord, spec: CampaignSpec) -> None:
        """Execute one primary campaign end to end."""
        from ..pore import ReducedTranslocationModel, default_reduced_potential
        from ..workflow.streaming import run_streamed_study

        with self._lock:
            cancel = self._cancel_events.setdefault(
                record.id, threading.Event())
        if cancel.is_set():
            self._finish(record, "cancelled", detail="cancelled before start")
            return
        if record.state == "pending":
            self.state.transition(record.id, "running")
        self.obs.set_gauge("service.campaigns.active",
                           sum(1 for r in self.state.list()
                               if r.state == "running"))

        def on_progress(totals: Dict[str, float]) -> None:
            resolved = int(sum(totals.values()))
            self.state.append_event(record.id, {
                "kind": "progress",
                "hits": int(totals.get("hits", 0)),
                "computed": int(totals.get("computed", 0)),
                "dead_lettered": int(totals.get("dead_lettered", 0)),
                "resolved": resolved,
                "total": spec.n_tasks,
            })

        def fault(task: Any, attempt: int) -> None:
            if cancel.is_set():
                raise CampaignInterrupted(
                    f"campaign {record.id} cancelled by client")
            if self.task_fault is not None:
                self.task_fault(record.id, task, attempt)

        model = ReducedTranslocationModel(default_reduced_potential())
        run_obs = _ProgressObs(on_progress)
        try:
            merged, report = run_streamed_study(
                model, spec.protocols(), n_samples=spec.n_samples,
                samples_per_task=spec.samples_per_task, seed=spec.seed,
                store=self.store, window=spec.window, dlq=self.dlq,
                retry=self.retry, fault=fault, n_records=spec.n_records,
                obs=run_obs,
            )
        except CampaignInterrupted:
            self._finish(record, "cancelled", detail="cancelled mid-stream")
            return
        except Exception as exc:
            self.state.set_error(record.id, f"{type(exc).__name__}: {exc}")
            self._finish(record, "failed", detail=type(exc).__name__)
            return
        result = self._build_result(spec, merged, report)
        self.state.save_result(spec.fingerprint, result)
        self.state.set_result_digest(record.id, result["content_digest"])
        outcome = "degraded" if result["degraded"] else "completed"
        self._finish(record, outcome,
                     detail=f"{result['n_tasks']} task(s), "
                            f"{len(result['dead_tasks'])} dead-lettered",
                     digest=result["content_digest"])

    def _finish(self, record: CampaignRecord, outcome: str, *,
                detail: str = "", digest: Optional[str] = None) -> None:
        """Terminal transition + fan-out to coalesced followers."""
        self.state.transition(record.id, outcome, detail=detail)
        self._count(f"service.campaigns.{outcome}")
        with self._lock:
            followers = self._followers.pop(record.id, [])
            self._cancel_events.pop(record.id, None)
        for follower_id in followers:
            follower = self.state.get(follower_id)
            if follower is None or follower.terminal:
                continue
            if digest is not None:
                self.state.set_result_digest(follower_id, digest)
            self.state.transition(
                follower_id, outcome, detail=f"primary {record.id}: {detail}"
                if detail else f"primary {record.id}")

    # -- results ---------------------------------------------------------------

    def _build_result(self, spec: CampaignSpec, merged: Dict[Any, Any],
                      report: Any) -> Dict[str, Any]:
        """Assemble the result document from per-cell merged ensembles.

        The ``content_digest`` follows the store's construction — SHA-256
        over the campaign's sorted task fingerprints (plus the
        dead-lettered subset and the spec identity) — so it is stable
        across re-runs, platforms, kernels and coalesced submissions:
        deterministic fingerprints fully determine the result bits, which
        is what makes the digest safe to serve as a strong ETag.
        """
        from ..core import estimate_pmf

        task_fps = sorted(report.fingerprints)  # the stream hashed them
        dead = sorted({
            entry["fingerprint"]
            for entry in report.failures.values()
            if entry.get("fingerprint")
        })
        digest = hashlib.sha256()
        from ..store.fingerprint import canonical_json

        digest.update(canonical_json({
            "spec": spec.fingerprint,
            "tasks": task_fps,
            "dead": dead,
        }).encode("ascii"))
        cells = []
        for proto, label in zip(spec.protocols(), spec.cell_labels()):
            if label not in merged:
                continue  # every task of this cell dead-lettered
            estimate = estimate_pmf(merged[label], estimator=spec.estimator)
            cells.append({
                "kappa_pn": proto.kappa_pn,
                "velocity": proto.velocity,
                "displacements": [float(x) for x in estimate.displacements],
                "pmf": [float(x) for x in estimate.values],
                "n_samples": estimate.n_samples,
                "estimator": estimate.estimator,
            })
        return {
            "schema": RESULT_SCHEMA,
            "spec_fingerprint": spec.fingerprint,
            "content_digest": digest.hexdigest(),
            "n_cells": len(cells),
            "n_tasks": len(task_fps),
            "degraded": bool(dead),
            "dead_tasks": dead,
            "cells": cells,
        }

    def _task_fingerprints(self, spec: CampaignSpec) -> List[str]:
        """The campaign's store fingerprints re-planned from its spec
        (descriptors only, no physics), for the dead-letter view of a
        campaign with no run report in hand; a run takes them from its
        :class:`~repro.workflow.StreamReport`."""
        from ..pore import ReducedTranslocationModel, default_reduced_potential
        from ..workflow.streaming import stream_study_tasks

        model = ReducedTranslocationModel(default_reduced_potential())
        return sorted(
            task.fingerprint
            for task in stream_study_tasks(
                model, spec.protocols(),
                spec.n_samples // spec.samples_per_task,
                spec.samples_per_task, seed=spec.seed,
                n_records=spec.n_records)
        )

    # -- control ---------------------------------------------------------------

    def cancel(self, campaign_id: str) -> CampaignRecord:
        """Request cancellation of a pending/running campaign.

        Terminal campaigns raise :class:`~repro.errors.LifecycleError`
        (the API's 409).  The cancel lands on the next task boundary —
        already-durable store records are kept (they remain valid cache
        entries for any future identical submission).
        """
        record = self.state.get(campaign_id)
        if record is None:
            raise ServiceError(f"no campaign {campaign_id!r}")
        if record.terminal:
            raise LifecycleError(
                f"campaign {campaign_id} is already {record.state}")
        with self._lock:
            event = self._cancel_events.get(campaign_id)
        if event is None and record.coalesced_with:
            # Followers cancel only themselves; the primary keeps running
            # for its own client.
            self.state.transition(campaign_id, "cancelled",
                                  detail="follower cancelled")
            with self._lock:
                peers = self._followers.get(record.coalesced_with, [])
                if campaign_id in peers:
                    peers.remove(campaign_id)
            self._count("service.campaigns.cancelled")
            return self.state.get(campaign_id)  # type: ignore[return-value]
        if event is not None:
            event.set()
        self._count("service.cancel.requested")
        return record

    def retry_dead_letters(self, campaign_id: str) -> CampaignRecord:
        """Requeue a degraded campaign's dead-lettered tasks and re-run.

        The campaign's dead fingerprints are marked requeued in the
        shared DLQ (idempotent — see
        :meth:`repro.resil.DeadLetterQueue.requeue`) and the spec is
        re-executed: completed tasks resolve as store hits, requeued ones
        recompute.  Only ``degraded`` campaigns have this edge.
        """
        record = self.state.get(campaign_id)
        if record is None:
            raise ServiceError(f"no campaign {campaign_id!r}")
        if record.state != "degraded":
            raise LifecycleError(
                f"campaign {campaign_id} is {record.state}; only degraded "
                f"campaigns can retry their dead letters")
        result = self.state.load_result(record.spec_fingerprint)
        dead = list(result.get("dead_tasks", [])) if result else []
        requeued = self.dlq.requeue(fingerprints=dead)
        self._count("service.dlq.requeued", len(requeued))
        spec = CampaignSpec.from_dict(record.spec)
        with self._lock:
            self.state.transition(
                campaign_id, "running",
                detail=f"dlq retry: {len(requeued)} task(s) requeued")
            self._cancel_events[campaign_id] = threading.Event()
            self._schedule(record, spec)
        return record

    def close(self) -> None:
        """Drain the worker pool (blocks until in-flight runs finish).

        The executor reference is swapped out under the lock but the
        blocking shutdown happens outside it: a worker finishing a run
        takes ``self._lock`` in :meth:`_finish`, so shutting down while
        holding it would deadlock against our own pool.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.obs.enabled and amount:
            self.obs.inc(name, amount)
