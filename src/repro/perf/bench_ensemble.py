"""Work-ensemble benchmark: one engine call per group vs one stacked call.

Times :func:`repro.smd.run_pulling_ensemble_parallel` on a fixed paper
workload (kappa = 100 pN/A, v = 12.5 A/ns) under both stacking policies,
on two shard layouts:

* **default layout** (``shard_size`` = :data:`~repro.smd.DEFAULT_SHARD_SIZE`)
  — ``kernel="vectorized"`` (one engine call per 8-replica shard) vs
  ``kernel="batched"`` (all shards in one call).  This is the headline
  ``batched_speedup``: it is measured against the path callers get by
  default.
* **per-trajectory layout** (``shard_size=1``) — every replica its own
  engine call vs all of them stacked.  The secondary
  ``batched_speedup_per_trajectory``: the most the stack can save, the
  whole per-replica Python step loop.

Every leg is repeated and reported as min / median / spread.  Within a
layout the two policies are cross-checked bit-for-bit — the engine's core
guarantee.  A run that breaks determinism produces a document that fails
validation, so the regression cannot slip through a benchmark run or CI.
"""

from __future__ import annotations

import statistics
import time
from typing import Optional, Tuple

import numpy as np

from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel, default_reduced_potential
from ..rng import SeedLike, as_seed_int
from ..smd import (
    DEFAULT_SHARD_SIZE,
    PullingProtocol,
    WorkEnsemble,
    run_pulling_ensemble_parallel,
)
from .harness import SCHEMA_ENSEMBLE, metrics_snapshot

__all__ = ["run_ensemble_benchmark"]


def _identical(a: WorkEnsemble, b: WorkEnsemble) -> bool:
    return (np.array_equal(a.works, b.works)
            and np.array_equal(a.positions, b.positions)
            and np.array_equal(a.displacements, b.displacements))


def run_ensemble_benchmark(
    quick: bool = False,
    seed: SeedLike = 2005,
    obs: Optional[Obs] = None,
    kernel: str = "vectorized",
) -> dict:
    """Benchmark the two stacking policies of the pulling engine.

    Returns a BENCH document (schema
    :data:`~repro.perf.harness.SCHEMA_ENSEMBLE`).  ``quick`` shrinks the
    ensemble to CI smoke scale (16 replicas, two repeats per leg).
    ``kernel`` selects the per-group policy of the baseline legs
    (``"vectorized"`` or the ``"reference"`` oracle); the stacked legs
    always run ``"batched"``.
    """
    obs = as_obs(obs)
    seed_int = as_seed_int(seed)
    n_samples = 16 if quick else 64
    shard_size = 4 if quick else DEFAULT_SHARD_SIZE
    repeats = 2 if quick else 3

    model = ReducedTranslocationModel(potential=default_reduced_potential())
    protocol = PullingProtocol(kappa_pn=100.0, velocity=12.5)

    def leg(shards: int, run_kernel: str) -> Tuple[WorkEnsemble, dict]:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            ensemble = run_pulling_ensemble_parallel(
                model, protocol, n_samples, shard_size=shards,
                seed=seed_int, kernel=run_kernel)
            walls.append(time.perf_counter() - t0)
        return ensemble, {
            "repeats": repeats,
            "min_s": min(walls),
            "median_s": statistics.median(walls),
            "spread_s": max(walls) - min(walls),
        }

    with obs.span("perf.bench.ensemble", quick=quick, n_samples=n_samples,
                  shard_size=shard_size, repeats=repeats):
        per_shard, per_shard_wall = leg(shard_size, kernel)
        batched, batched_wall = leg(shard_size, "batched")
        per_traj, per_traj_wall = leg(1, kernel)
        stacked, stacked_wall = leg(1, "batched")

    deterministic = (_identical(per_shard, batched)
                     and _identical(per_traj, stacked))
    speedup = per_shard_wall["median_s"] / batched_wall["median_s"]
    speedup_per_traj = per_traj_wall["median_s"] / stacked_wall["median_s"]
    if obs.enabled:
        obs.metrics.set_gauge("perf.ensemble.per_shard_wall_s",
                              per_shard_wall["median_s"])
        obs.metrics.set_gauge("perf.ensemble.batched_wall_s",
                              batched_wall["median_s"])
        obs.metrics.set_gauge("perf.ensemble.batched_speedup", speedup)
        obs.metrics.set_gauge("perf.ensemble.batched_speedup_per_trajectory",
                              speedup_per_traj)

    return {
        "schema": SCHEMA_ENSEMBLE,
        "quick": quick,
        "seed": seed_int,
        "workload": {
            "kappa_pn": protocol.kappa_pn,
            "velocity_A_per_ns": protocol.velocity,
            "n_samples": n_samples,
            "shard_size": shard_size,
        },
        "per_shard_wall": per_shard_wall,
        "samples_per_s_per_shard": n_samples / per_shard_wall["median_s"],
        "batched": {
            "n_replicas": n_samples,
            "batched_wall": batched_wall,
            "per_trajectory_wall": per_traj_wall,
            "per_trajectory_batched_wall": stacked_wall,
            "samples_per_s_batched": n_samples / batched_wall["median_s"],
        },
        "batched_speedup": speedup,
        "batched_speedup_per_trajectory": speedup_per_traj,
        "deterministic": bool(deterministic),
        "metrics": metrics_snapshot(obs),
    }
