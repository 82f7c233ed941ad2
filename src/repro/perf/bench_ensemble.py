"""Work-ensemble benchmark: one engine call per group vs one stacked call.

Times a fixed paper workload (kappa = 100 pN/A, v = 12.5 A/ns) laid out
both ways, on two shard layouts:

* **task layout** (``shard_size`` = 8 replicas per seeded group) — one
  explicit :func:`~repro.smd.run_pulling_ensemble` call per group vs one
  :func:`~repro.smd.run_pulling_groups` call over all of them.  This is
  the headline ``batched_speedup``: what the window step's stacking rule
  (:meth:`repro.smd.plan.TaskResolver.resolve_window`) buys over pulling
  the same tasks one by one.
* **per-trajectory layout** (``shard_size=1``) — every replica its own
  engine call vs all of them in one stack (the window step never stacks
  one-replica tasks; see :mod:`repro.smd.batched`).  The secondary
  ``batched_speedup_per_trajectory``: the most the stack can save, the
  whole per-replica Python step loop.

A third pair of legs times the cross-cell stack on the shape the Fig. 4
service workload gives it — the ``window_row``: the four cells of the
kappa = 1000 pN/A row (four tasks of four replicas each, one default
16-task window) as four one-cell engine calls vs one
:func:`~repro.smd.run_pulling_stack` call over all sixteen pulls.  The loop
is overhead-bound, so ``cross_cell_speedup`` is close to the ratio of
iterations: the sum of the four cells' step counts over the longest one.

Every leg is repeated and reported as min / median / spread.  Within a
layout the two legs are cross-checked bit-for-bit — the engine's core
guarantee.  A run that breaks determinism produces a document that fails
validation, so the regression cannot slip through a benchmark run or CI.
"""

from __future__ import annotations

import statistics
import time
from functools import reduce
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel, default_reduced_potential
from ..rng import SeedLike, as_seed_int, stream_for
from ..smd import (
    PAPER_VELOCITIES,
    PullingProtocol,
    WorkEnsemble,
    cell_labels,
    run_pulling_ensemble,
    run_pulling_groups,
    run_pulling_stack,
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
) -> dict:
    """Benchmark one-call-per-group against the stacked engine call.

    Returns a BENCH document (schema
    :data:`~repro.perf.harness.SCHEMA_ENSEMBLE`).  ``quick`` shrinks the
    ensemble to CI smoke scale (16 replicas, two repeats per leg, a quarter
    of the window row's pull distance).
    """
    obs = as_obs(obs)
    seed_int = as_seed_int(seed)
    n_samples = 16 if quick else 64
    shard_size = 4 if quick else 8
    repeats = 2 if quick else 3

    model = ReducedTranslocationModel(potential=default_reduced_potential())
    protocol = PullingProtocol(kappa_pn=100.0, velocity=12.5)
    row = [PullingProtocol(kappa_pn=1000.0, velocity=v,
                           distance=2.5 if quick else 10.0)
           for v in PAPER_VELOCITIES]
    row_tasks, row_samples, row_records = 4, 4, 21

    def groups(shard: int) -> List[Tuple[np.random.Generator, int]]:
        # Independently seeded groups of ``shard`` replicas (both shard
        # sizes divide n_samples).
        return [(stream_for(seed_int, "smd.shard", b), shard)
                for b in range(n_samples // shard)]

    def one_call_per_group(shard: int) -> WorkEnsemble:
        return reduce(WorkEnsemble.merged_with, (
            run_pulling_ensemble(model, protocol, n, seed=rng)
            for rng, n in groups(shard)))

    def one_stacked_call(shard: int) -> WorkEnsemble:
        return reduce(WorkEnsemble.merged_with,
                      run_pulling_groups(model, protocol, groups(shard)))

    def row_pulls(cell: PullingProtocol
                  ) -> List[Tuple[PullingProtocol, np.random.Generator, int]]:
        # The streams the study plan gives this cell's tasks.
        return [(cell, stream_for(seed_int, *cell_labels(cell), "task", t),
                 row_samples) for t in range(row_tasks)]

    def one_call_per_cell() -> List[WorkEnsemble]:
        return [ensemble for cell in row for ensemble in run_pulling_stack(
            model, row_pulls(cell), n_records=row_records)]

    def one_window_call() -> List[WorkEnsemble]:
        return run_pulling_stack(
            model, [pull for cell in row for pull in row_pulls(cell)],
            n_records=row_records)

    def leg(run: Callable[[], Any]) -> Tuple[Any, dict]:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            ensemble = run()
            walls.append(time.perf_counter() - t0)
        return ensemble, {
            "repeats": repeats,
            "min_s": min(walls),
            "median_s": statistics.median(walls),
            "spread_s": max(walls) - min(walls),
        }

    with obs.span("perf.bench.ensemble", quick=quick, n_samples=n_samples,
                  shard_size=shard_size, repeats=repeats):
        per_shard, per_shard_wall = leg(
            lambda: one_call_per_group(shard_size))
        batched, batched_wall = leg(lambda: one_stacked_call(shard_size))
        per_traj, per_traj_wall = leg(lambda: one_call_per_group(1))
        stacked, stacked_wall = leg(lambda: one_stacked_call(1))
        per_cell, per_cell_wall = leg(one_call_per_cell)
        window, window_wall = leg(one_window_call)

    deterministic = (_identical(per_shard, batched)
                     and _identical(per_traj, stacked)
                     and all(map(_identical, per_cell, window)))
    speedup = per_shard_wall["median_s"] / batched_wall["median_s"]
    speedup_per_traj = per_traj_wall["median_s"] / stacked_wall["median_s"]
    speedup_cross_cell = per_cell_wall["median_s"] / window_wall["median_s"]
    if obs.enabled:
        obs.metrics.set_gauge("perf.ensemble.per_shard_wall_s",
                              per_shard_wall["median_s"])
        obs.metrics.set_gauge("perf.ensemble.batched_wall_s",
                              batched_wall["median_s"])
        obs.metrics.set_gauge("perf.ensemble.batched_speedup", speedup)
        obs.metrics.set_gauge("perf.ensemble.batched_speedup_per_trajectory",
                              speedup_per_traj)
        obs.metrics.set_gauge("perf.ensemble.cross_cell_speedup",
                              speedup_cross_cell)

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
        "window_row": {
            "kappa_pn": row[0].kappa_pn,
            "velocities_A_per_ns": [cell.velocity for cell in row],
            "distance_A": row[0].distance,
            "n_cells": len(row),
            "n_replicas": len(row) * row_tasks * row_samples,
            "per_cell_wall": per_cell_wall,
            "stacked_wall": window_wall,
        },
        "batched_speedup": speedup,
        "batched_speedup_per_trajectory": speedup_per_traj,
        "cross_cell_speedup": speedup_cross_cell,
        "deterministic": bool(deterministic),
        "metrics": metrics_snapshot(obs),
    }
