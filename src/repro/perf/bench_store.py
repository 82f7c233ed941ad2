"""Store/streaming benchmark: indexed resume, DLQ degradation, stealing.

The million-task regime lives or dies on three numbers this benchmark
pins down (``BENCH_store.json``, schema :data:`SCHEMA_STORE`):

* **cold throughput** — streamed tasks/s into a fresh
  :class:`~repro.store.ResultStore` (synthetic sub-millisecond tasks, so
  the store layer dominates, which is the point);
* **resume latency** — wall time for a completion-only pass over a
  campaign that was killed mid-stream (a real
  :class:`~repro.errors.CampaignInterrupted` out of the chaos hook) and
  over a fully-complete campaign.  The durable cursor plus the per-shard
  indexes make this O(changed shards), not O(records);
* **degradation accounting** — poisoned tasks land in the dead-letter
  queue (exact expected depth) and a down-site grid campaign moves work
  via the seeded :class:`~repro.grid.WorkStealer` (steal count > 0).

``deterministic`` is the cross-check: two same-seed cold runs must agree
on the store content digest and the DLQ entries byte for byte, and the
validator rejects the document outright when they don't.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, Optional

import numpy as np

from ..errors import CampaignInterrupted, SimulationError
from ..obs import Obs, as_obs
from ..rng import SeedLike, as_seed_int, stream_for
from ..smd.protocol import PullingProtocol
from ..smd.work import WorkEnsemble
from .harness import SCHEMA_STORE, metrics_snapshot

__all__ = ["run_store_benchmark", "synthetic_stream"]

#: Every synthetic task shares one protocol: the benchmark measures the
#: store and scheduler layers, not the physics.
_BENCH_PROTOCOL = PullingProtocol(kappa_pn=100.0, velocity=12.5,
                                  distance=2.0, equilibration_ns=0.0)


def _synthetic_ensemble(seed: int, index: int) -> WorkEnsemble:
    """A tiny (2 replica, 3 record) ensemble, deterministic per index."""
    rng = stream_for(seed, "bench", "store", "task", index)
    works = np.zeros((2, 3))
    works[:, 1:] = rng.normal(5.0, 1.0, size=(2, 2)).cumsum(axis=1)
    positions = np.tile(np.array([0.0, 1.0, 2.0]), (2, 1))
    positions += rng.normal(0.0, 0.05, size=(2, 3))
    return WorkEnsemble(
        protocol=_BENCH_PROTOCOL,
        displacements=np.array([0.0, 1.0, 2.0]),
        works=works,
        positions=positions,
        temperature=300.0,
        cpu_hours=0.0,
    )


def synthetic_stream(n_tasks: int, seed: int,
                     poisoned: frozenset = frozenset()) -> Iterator[Any]:
    """Lazily yield ``n_tasks`` cheap streamed tasks.

    Descriptors and values are pure functions of ``(seed, index)``, so two
    same-seed streams are interchangeable — the property the determinism
    cross-check rides on.  ``poisoned`` indices raise
    :class:`~repro.errors.SimulationError` on every attempt when computed.
    """
    from ..workflow.streaming import StreamTask

    for index in range(n_tasks):
        key = (seed, "bench", "store", "task", index)
        task = {
            "kind": "bench-store",
            "seed_key": list(key),
            "index": index,
        }

        def compute(index: int = index) -> WorkEnsemble:
            if index in poisoned:
                raise SimulationError(
                    f"bench permafail: task {index} is poisoned")
            return _synthetic_ensemble(seed, index)

        yield StreamTask(index=index, key=key, cell=("bench",), task=task,
                        compute=compute)


def _steal_leg(seed: int, obs: Obs) -> Dict[str, Any]:
    """A small down-site grid campaign that must trigger work stealing."""
    from ..grid import (
        CampaignManager,
        EventLoop,
        FederatedGrid,
        Grid,
        Job,
        WorkStealer,
        ngs_sites,
        teragrid_sites,
    )
    from ..grid.stealing import StealingPolicy

    loop = EventLoop()
    federation = FederatedGrid([
        Grid("TeraGrid", teragrid_sites(), loop),
        Grid("NGS", ngs_sites(), loop),
    ])
    queues = federation.all_queues()
    # Oversubscribe the federation (~30 concurrent slots for 60 jobs) so
    # every queue builds a waiting backlog, then take the biggest site down
    # mid-campaign: queues drain at very different rates and the end-game
    # leaves idle thieves next to backlogged victims.
    queues["PSC"].schedule_outage(0.5, 400.0)
    jobs = [Job(name=f"bench-steal-{i}", procs=100, duration_hours=10.0)
            for i in range(60)]
    stealer = WorkStealer(seed=seed, policy=StealingPolicy(
        check_hours=1.0, min_victim_backlog=1), obs=obs)
    manager = CampaignManager(federation, obs=obs, stealing=stealer)
    report = manager.run(jobs)
    return {
        "jobs": len(jobs),
        "completed": len(report.completed),
        "steals": int(report.steals),
    }


def run_store_benchmark(
    quick: bool = False,
    seed: SeedLike = 2005,
    obs: Optional[Obs] = None,
    n_tasks: Optional[int] = None,
) -> dict:
    """Benchmark the store's streaming, resume and DLQ path.

    Returns a BENCH document (schema
    :data:`~repro.perf.harness.SCHEMA_STORE`).  ``n_tasks`` defaults to
    2 000 under ``quick`` and 10 000 otherwise (the CI smoke floor).
    """
    import tempfile

    from ..resil.dlq import DeadLetterQueue
    from ..resil.policy import RetryPolicy
    from ..store import ResultStore
    from ..workflow.streaming import run_streamed_tasks

    obs = as_obs(obs)
    seed_int = as_seed_int(seed)
    if n_tasks is None:
        n_tasks = 2_000 if quick else 10_000
    window = 256
    poisoned = frozenset({n_tasks // 3, (2 * n_tasks) // 3})
    kill_after = n_tasks // 2
    retry = RetryPolicy(max_attempts=2, base_delay=1e-6)
    campaign_key = ["bench-store", seed_int, n_tasks]

    def run_pass(root: str, *, interrupt: bool = False,
                 collect: bool = False) -> Dict[str, Any]:
        store = ResultStore(f"{root}/store", obs=obs, sync=False)
        dlq = DeadLetterQueue(f"{root}/DLQ.jsonl", obs=obs, sync=False)

        def chaos(spec: Any, attempt: int) -> None:
            if interrupt and spec.index >= kill_after:
                raise CampaignInterrupted(
                    f"bench kill at task {spec.index}")

        t0 = time.perf_counter()
        try:
            report = run_streamed_tasks(
                synthetic_stream(n_tasks, seed_int, poisoned),
                store=store, campaign_key=campaign_key, window=window,
                collect=collect, dlq=dlq, retry=retry,
                fault=chaos if interrupt else None, obs=obs,
            )
        except CampaignInterrupted:
            report = None
        wall = time.perf_counter() - t0
        return {"store": store, "dlq": dlq, "report": report, "wall": wall}

    with obs.span("perf.bench.store", quick=quick, n_tasks=n_tasks,
                  window=window):
        with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
            # Cold leg: every task computed, store filled from scratch.
            cold = run_pass(f"{tmp}/a")
            # Determinism cross-check: an independent same-seed cold run.
            twin = run_pass(f"{tmp}/b")
            # Kill/resume legs: killed mid-stream, resumed to completion,
            # then resumed again over the fully-complete campaign.
            killed = run_pass(f"{tmp}/c", interrupt=True)
            resumed = run_pass(f"{tmp}/c")
            warm = run_pass(f"{tmp}/c")

            cold_report = cold["report"]
            warm_report = warm["report"]
            resumed_report = resumed["report"]
            deterministic = (
                cold["store"].content_digest()
                == twin["store"].content_digest()
                and cold["dlq"].entries() == twin["dlq"].entries()
                and cold["store"].content_digest()
                == warm["store"].content_digest()
            )
            steal = _steal_leg(seed_int, obs)
            doc = {
                "schema": SCHEMA_STORE,
                "quick": quick,
                "seed": seed_int,
                "workload": {
                    "n_tasks": n_tasks,
                    "window": window,
                    "poisoned_tasks": len(poisoned),
                    "kill_after": kill_after,
                },
                "cold": {
                    "wall_s": cold["wall"],
                    "tasks_per_s": n_tasks / cold["wall"],
                    "computed": cold_report.computed,
                    "records": len(cold["store"]),
                },
                "resume": {
                    "killed_wall_s": killed["wall"],
                    "wall_s": resumed["wall"],
                    "tasks_per_s": n_tasks / resumed["wall"],
                    "computed": resumed_report.computed,
                    "warm_wall_s": warm["wall"],
                    "warm_skipped_prefix": warm_report.skipped_prefix,
                },
                "dlq": {
                    "depth": len(cold["dlq"]),
                    "expected_depth": len(poisoned),
                    "reasons": cold["dlq"].summary()["reasons"],
                },
                "stealing": steal,
                "deterministic": bool(deterministic),
                "metrics": metrics_snapshot(obs),
            }
    if obs.enabled:
        obs.metrics.set_gauge("perf.store.cold_tasks_per_s",
                              doc["cold"]["tasks_per_s"])
        obs.metrics.set_gauge("perf.store.resume_wall_s",
                              doc["resume"]["wall_s"])
        obs.metrics.set_gauge("perf.store.warm_wall_s",
                              doc["resume"]["warm_wall_s"])
    return doc
