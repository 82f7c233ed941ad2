"""One repeat of one workload, in a fresh process.

``run.py`` starts this file once per repeat (never two at a time) so no
repeat inherits another's heap, caches or thread pool.  It boots the
service in-process on ``127.0.0.1:0`` with every default (``sync=True``,
default kernel and estimator), drives it with one closed-loop client —
the next request is sent only after the previous reply — checks what came
back, and prints one JSON document on the last line of stdout.

The program is only ever called through its public functions; with
``--traced 1`` the wrappers of ``tracer.py`` are installed around them
for the measured region.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

import stats
import tracer as tracing
import workloads
from hostprobe import CLOCK, wall_s

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Records timed by the stand-alone encode/decode measurement.
_RECORD_SAMPLE = 64


@contextlib.contextmanager
def timed() -> Iterator[Dict[str, float]]:
    """Times the block: on exit the dict holds its ``start`` and ``end``
    (``CLOCK`` readings, which the parent's host probe shares)."""
    out: Dict[str, float] = {}
    start = CLOCK()
    try:
        yield out
    finally:
        out.update(start=start, end=CLOCK())


#: What the parent needs of one timed campaign.
CAMPAIGN_KEYS = ("start", "end", "tasks", "sampled_ns")


@contextlib.contextmanager
def measured_region(args: argparse.Namespace, out: Dict[str, Any]
                    ) -> Iterator[Optional[tracing.Tracer]]:
    """The timed part of a repeat; on the traced repeat the tracer's
    wrappers are in place for it."""
    tracer = None
    if args.traced:
        tracer = tracing.Tracer(CLOCK)
        tracer.install(tracing.TARGETS)
    try:
        with timed() as region:
            yield tracer
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["region"] = region


class Checks:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


# -- the service, booted in-process ---------------------------------------------


class LiveService:
    """``build_service`` + ``ServiceServer`` on an event-loop thread."""

    def __init__(self, store_root: str) -> None:
        from repro.service import ServiceServer, build_service

        self.app = build_service(store_root)
        self.server = ServiceServer(self.app, port=0)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="bench-http")
        self.thread.start()
        ready.wait()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()


def make_client(url: str, checks: Checks) -> Any:
    """A ``ServiceClient`` that times every request and counts refusals."""
    from repro.service import ServiceClient, ServiceClientError

    class TimedClient(ServiceClient):
        def __init__(self, base_url: str, token: str) -> None:
            super().__init__(base_url, token)
            #: (path, start, end) of every request, in the order sent.
            self.log: List[Tuple[str, float, float]] = []

        def _request(self, method: str, path: str, **kwargs: Any) -> Any:
            start = CLOCK()
            try:
                reply = super()._request(method, path, **kwargs)
                checks.check(True, "")
                return reply
            except ServiceClientError as exc:
                checks.check(False, f"{method} {path}: {exc}")
                raise
            finally:
                self.log.append((path, start, CLOCK()))

    return TimedClient(url, workloads.OPERATOR_TOKEN)


def run_campaign(client: Any, spec: Dict[str, Any], checks: Checks
                 ) -> Dict[str, Any]:
    """submit -> terminal state seen -> result bytes fetched, timed."""
    with timed() as timing:
        doc = client.submit(spec)
        final = client.wait_for(doc["id"])
        result, etag = client.result(doc["id"])
    checks.check(final["state"] == "completed",
                 f"campaign {doc['id']} ended {final['state']}")
    checks.check(result["n_tasks"] == workloads.spec_tasks(spec)
                 and not result["dead_tasks"],
                 f"campaign {doc['id']}: task count or dead letters differ")
    return {"id": doc["id"], "etag": etag, "result": result,
            "tasks": workloads.spec_tasks(spec),
            "sampled_ns": workloads.spec_sampled_ns(spec), **timing}


def pmf_output(campaign: Dict[str, Any]) -> Dict[str, Any]:
    result = campaign["result"]
    return {"content_digest": result["content_digest"],
            "cells": [{"kappa_pn": c["kappa_pn"], "velocity": c["velocity"],
                       "estimator": c["estimator"],
                       "n_samples": c["n_samples"], "pmf": c["pmf"]}
                      for c in result["cells"]]}


def run_service_workload(args: argparse.Namespace, root: str,
                         checks: Checks) -> Dict[str, Any]:
    name, seed, smoke = args.workload, args.seed, args.smoke
    service = LiveService(os.path.join(root, "store"))
    try:
        client = make_client(service.url, checks)
        store = service.app.runner.store
        prefill = None
        if name == "warm_service":
            plan = workloads.warm_plan(seed, smoke)
            prefill = run_campaign(client, plan["prefill"], checks)
        client.healthz()
        out: Dict[str, Any] = {"setup": {"start": args.t0, "end": CLOCK()}}
        if args.setup_only:
            return out
        hits_before = store.hits
        writes_before = store.writes
        misses_before = store.misses
        first_request = len(client.log)
        with measured_region(args, out) as tracer:
            if name == "warm_service":
                campaigns = [run_campaign(client, spec, checks)
                             for spec in plan["phase_a"]]
                out.update(run_request_phases(client, plan, prefill, checks))
            else:
                campaigns = [run_campaign(
                    client, workloads.cold_spec(name, seed, smoke), checks)]

        tasks = sum(c["tasks"] for c in campaigns)
        if name == "warm_service":
            checks.check(store.hits - hits_before == tasks
                         and store.writes == writes_before,
                         f"phase A: {store.hits - hits_before} hits for "
                         f"{tasks} tasks, "
                         f"{store.writes - writes_before} writes")
        else:
            checks.check(store.writes == tasks and store.hits == 0,
                         f"cold store: {store.writes} writes, "
                         f"{store.hits} hits for {tasks} tasks")
        dlq_depth = service.app.runner.dlq.summary()["depth"]
        checks.check(dlq_depth == 0, f"{dlq_depth} dead letters")
        out["campaigns"] = [{key: c[key] for key in CAMPAIGN_KEYS}
                            for c in campaigns]
        out["outputs"] = [pmf_output(c) for c in campaigns]
        out["counts"] = {"store.writes": store.writes - writes_before,
                         "store.hits": store.hits - hits_before,
                         "store.misses": store.misses - misses_before}
        if tracer is not None:
            requests = [r for r in client.log[first_request:]
                        if "/healthz" not in r[0]]
            out["layers"] = layer_metrics(
                tracer, out["region"], requests,
                phase_b=out.get("request_log", []))
            out["layers"]["store.sharded.hit_ratio"] = (
                out["counts"]["store.hits"] / tasks)
            out["layers"].update(record_metrics(store=store))
            if args.spans:
                out["spans"] = tracer.spans
        out.pop("request_log", None)
        return out
    finally:
        service.close()


def run_request_phases(client: Any, plan: Dict[str, Any],
                       prefill: Dict[str, Any], checks: Checks
                       ) -> Dict[str, Any]:
    """Phase B (closed-loop GETs, round-robin over the four classes) and
    phase C (verbatim resubmits that the result cache answers)."""
    cid, etag = prefill["id"], prefill["etag"]
    calls = {
        "status": lambda: client.campaign(cid),
        "result200": lambda: client.result(cid),
        "result304": lambda: client.result(cid, etag=etag),
        "events": lambda: client.events(cid, since=0),
    }
    latencies: Dict[str, List[float]] = {c: [] for c in calls}
    log: List[Tuple[str, float, float]] = []
    with timed() as phase_b:
        for _ in range(plan["gets_per_class"]):
            for cls, call in calls.items():
                start = CLOCK()
                reply = call()
                end = CLOCK()
                latencies[cls].append((end - start) * 1e3)
                log.append((cls, start, end))
                if cls == "result304":
                    checks.check(reply == (None, etag),
                                 "304 without the ETag")
                elif cls == "result200":
                    checks.check(reply[1] == etag, "result ETag changed")

    twins_ms = []
    twin = None
    with timed() as phase_c:
        for _ in range(plan["twins"]):
            start = CLOCK()
            twin = client.submit(plan["prefill"])
            twins_ms.append((CLOCK() - start) * 1e3)
            checks.check(
                twin["coalesced_with"] is not None
                and twin["state"] == "completed"
                and twin["result_digest"] == prefill["etag"].strip('"'),
                f"resubmit {twin['id']} was not served from {cid}")
    if twin is not None:
        body, twin_etag = client.result(twin["id"])
        checks.check(twin_etag == etag and body == prefill["result"],
                     "twin result differs from the primary's")
    return {"requests_ms": latencies, "phase_b": phase_b,
            "twins_ms": twins_ms, "phase_c": phase_c, "request_log": log}


# -- the 3-D library call -------------------------------------------------------


def run_cg3d(args: argparse.Namespace, checks: Checks) -> Dict[str, Any]:
    import numpy as np
    from repro.pore.assembly import build_translocation_simulation
    from repro.smd import PullingProtocol, ensemble3d

    plan = workloads.cg3d_plan(args.seed, args.smoke)
    protocol = PullingProtocol(**plan["protocol"])
    # Set-up is imports plus one model build (the first build pays the
    # lazy imports and table construction every later one reuses).
    build_translocation_simulation(n_bases=plan["n_bases"], seed=args.seed)
    out: Dict[str, Any] = {"setup": {"start": args.t0, "end": CLOCK()}}
    if args.setup_only:
        return out
    with measured_region(args, out) as tracer, timed() as timing:
        # Looked up on the module at call time, so the traced run sees it.
        ensemble = ensemble3d.run_pulling_ensemble_3d(
            protocol, n_samples=plan["n_samples"], n_bases=plan["n_bases"],
            n_records=plan["n_records"], seed=plan["seed"])
    checks.check(ensemble.works.shape == (plan["n_samples"],
                                          plan["n_records"])
                 and bool(np.all(np.isfinite(ensemble.works)))
                 and bool(np.all(ensemble.works[:, 0] == 0.0)),
                 "3-D ensemble has the wrong shape or non-finite work")
    out["campaigns"] = [{"tasks": plan["n_samples"],
                         "sampled_ns": workloads.cg3d_sampled_ns(plan),
                         **timing}]
    out["outputs"] = [{"works": ensemble.works.tolist(),
                       "positions": ensemble.positions.tolist()}]
    out["counts"] = {}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out["region"], [], phase_b=[])
        out["layers"]["store.sharded.hit_ratio"] = 0.0
        out["layers"].update(record_metrics(
            ensemble=ensemble, plan=plan, protocol=protocol))
        if args.spans:
            out["spans"] = tracer.spans
    return out


# -- per-layer numbers ----------------------------------------------------------


def layer_metrics(tracer: tracing.Tracer, region: Dict[str, float],
                  requests: List[Tuple[str, float, float]],
                  phase_b: List[Tuple[str, float, float]]
                  ) -> Dict[str, float]:
    """Every per-layer metric the traced child can compute on its own.

    ``requests`` is every client request of the measured ``region`` by path;
    ``phase_b`` is the subset sent by phase B, by class name.
    """
    runs = tracing.run_windows(tracer.spans)
    windows = [window for window, _glue in runs]
    totals = tracing.family_totals(tracer.spans, tracer.aggregated(),
                                   windows)
    polls, poll_wait_s = totals.pop("service.api.poll", (0, 0.0))
    out: Dict[str, float] = {}
    for family in tracing.FAMILIES:
        calls, self_s = totals.get(family, (0, 0.0))
        out[f"{family}.calls"] = calls
        out[f"{family}.self_s"] = self_s
    out["service.api.poll.calls"] = polls
    out["service.api.poll.wait_s"] = poll_wait_s
    out["service.runner.run.self_s"] = sum(glue for _window, glue in runs)
    out["bench.trace_missing_targets"] = len(tracer.missing)

    # HTTP framing, for the requests that block the client (polling is
    # left out as above): as a latency, what the client waited beyond the
    # handler's own span (socket set-up, asyncio parsing, the hop to the
    # worker thread); as a share of the wall time, the whole cycle up to
    # the next request beyond that span, because the server tears the
    # connection down, on the client's CPU, after it has replied.
    handled = tracing.handler_durations(tracer.spans, requests)
    next_start = [start for _path, start, _end in requests[1:]]
    next_start.append(region["end"])
    blocking = [i for i, (path, start, _end) in enumerate(requests)
                if handled[i] is not None and "wait=1" not in path
                and not tracing.in_windows(start, windows)]
    waited_s = [requests[i][2] - requests[i][1] - handled[i]
                for i in blocking]
    framing_s = sum(next_start[i] - requests[i][1] - handled[i]
                    for i in blocking)
    out["service.http.framing_ms.p50"] = (
        statistics.median(waited_s) * 1e3 if waited_s else 0.0)
    out["service.http.framing.self_s"] = framing_s
    # The long-poll looks for news once per ``poll_interval``: when a
    # campaign has made its last transition the client still sits in it.
    notify_s = sum(
        next((start - finished for path, start, _end in requests
              if start >= finished and "wait=1" not in path), 0.0)
        for (_began, finished), _glue in runs)
    out["service.api.poll.notify_s"] = notify_s

    by_class: Dict[str, List[float]] = {c: []
                                        for c in workloads.REQUEST_CLASSES}
    for cls, start, end in phase_b:
        by_class[cls].append((end - start) * 1e3)
    pooled = [ms for values in by_class.values() for ms in values]
    out["service.http.req_p99_ms"] = (
        stats.percentile(pooled, 99.0) if pooled else 0.0)
    for cls, values in by_class.items():
        out[f"service.http.{cls}.p50_ms"] = (
            statistics.median(values) if values else 0.0)

    # Self times add up to their roots' durations, so with glue and
    # framing this is the share of the wall time the trace accounts for.
    busy = sum(self_s for _calls, self_s in totals.values())
    out["bench.layer_sum_frac"] = (
        busy + out["service.runner.run.self_s"] + framing_s + notify_s
    ) / wall_s(region)
    return out


def record_metrics(store: Any = None, ensemble: Any = None,
                   plan: Optional[Dict[str, Any]] = None,
                   protocol: Any = None) -> Dict[str, float]:
    """Record encode/decode timed stand-alone on the workload's own
    ensembles (inside ``put``/``get`` they cannot be told from file I/O)."""
    from repro.store.record import (
        build_record,
        decode_ensemble,
        dumps_record,
        loads_record,
    )

    pairs = []
    if store is not None:
        for fingerprint in store.fingerprints()[:_RECORD_SAMPLE]:
            record = store.read_record(fingerprint)
            pairs.append((record["task"], decode_ensemble(record["result"])))
    else:
        from repro.smd.ensemble import PAPER_CPU_HOURS_PER_NS
        from repro.store import pulling_task_3d

        task = pulling_task_3d(
            protocol, n_samples=plan["n_samples"], n_bases=plan["n_bases"],
            n_records=plan["n_records"], axis=(0.0, 0.0, -1.0),
            start_com_z=20.0, cpu_hours_per_ns=PAPER_CPU_HOURS_PER_NS,
            seed_key=(plan["seed"],))
        pairs = [(task, ensemble)] * _RECORD_SAMPLE
    start = CLOCK()
    texts = [dumps_record(build_record(task, ens)) for task, ens in pairs]
    encode_s = CLOCK() - start
    start = CLOCK()
    for text in texts:
        decode_ensemble(loads_record(text)["result"])
    decode_s = CLOCK() - start
    n = len(pairs)
    return {
        "store.record.encode.us_per_record": encode_s / n * 1e6,
        "store.record.decode.us_per_record": decode_s / n * 1e6,
        "store.record.bytes_per_record":
            sum(len(t.encode("utf-8")) for t in texts) / n,
    }


# -- entry ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK reading taken by the parent "
                             "just before it started this process")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, REPO_SRC)
    import numpy

    checks = Checks()
    root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        if args.workload == "cg3d_pull":
            out = run_cg3d(args, checks)
        else:
            out = run_service_workload(args, root, checks)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out.update({
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted, "failures": checks.failures,
        "numpy": numpy.__version__,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
