"""Adaptive-allocation benchmark: cost-to-accuracy vs uniform replicas.

The adaptive controller (:func:`~repro.workflow.run_adaptive_campaign`)
claims that spending a pilot on per-bin bias/variance diagnostics and
reallocating the remaining replica budget to the worst windows buys more
accuracy per CPU-hour than spreading the same budget uniformly.  This
benchmark pins that claim to numbers (``BENCH_adaptive.json``, schema
:data:`SCHEMA_ADAPTIVE`):

* **cost-to-accuracy points** — at each replica budget the same protocol
  is run twice: adaptively (small pilot + reallocated pool) and uniformly
  (the whole budget as an even pilot, empty pool).  Both legs share seed
  keys — a refine cell names its own task range, extending the pilot's
  (:func:`~repro.smd.plan.plan_tasks`) — so the uniform leg is not a
  strawman — at budgets where the diagnostic happens to allocate evenly,
  the two legs are bit-identical and the errors tie exactly.  The
  validator enforces per-point dominance (``adaptive_error <=
  uniform_error``);
* **determinism** — one budget is re-run as a same-seed twin and against
  a throwaway store both cold (every task computed and written) and warm
  (every task a hit); all four
  :meth:`~repro.workflow.AdaptiveReport.digest` values must agree, and the
  validator rejects the document when they don't.

Errors are RMS against the model's analytic reference PMF, so the numbers
carry the trap-smearing systematic shared by both legs — the benchmark
ranks allocations, it does not certify absolute accuracy.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from ..obs import Obs, as_obs
from ..rng import SeedLike, as_seed_int
from ..smd.protocol import PullingProtocol
from .harness import SCHEMA_ADAPTIVE, metrics_snapshot

__all__ = ["run_adaptive_benchmark"]

#: One sharp-featured window (the barrier region of the reduced
#: landscape); stiff spring so the bins differ in dissipation and the
#: diagnostic has real structure to rank.
_BENCH_PROTOCOL = PullingProtocol(kappa_pn=400.0, velocity=50.0,
                                  distance=8.0, start_z=-5.0)
_N_BINS = 4
_PILOT = 4
_N_RECORDS = 11

#: Replica budgets per point; each must be divisible by ``_N_BINS`` (the
#: uniform leg's even split) and by the 2-replica task granularity.
_BUDGETS_QUICK: Tuple[int, ...] = (24, 40)
_BUDGETS_FULL: Tuple[int, ...] = (24, 40, 64)


def run_adaptive_benchmark(
    quick: bool = False,
    seed: SeedLike = 2005,
    obs: Optional[Obs] = None,
) -> dict:
    """Benchmark adaptive vs uniform replica allocation.

    Returns a BENCH document (schema
    :data:`~repro.perf.harness.SCHEMA_ADAPTIVE`).  ``quick`` drops the
    largest budget point; the physics workload is small either way (the
    reduced 1-D model, 11 records per pull).
    """
    import tempfile

    from ..pore import ReducedTranslocationModel, default_reduced_potential
    from ..store import ResultStore
    from ..workflow import run_adaptive_campaign

    obs = as_obs(obs)
    seed_int = as_seed_int(seed)
    budgets = _BUDGETS_QUICK if quick else _BUDGETS_FULL
    model = ReducedTranslocationModel(default_reduced_potential())

    def run(budget: int, *, pilot: int, store=None):
        return run_adaptive_campaign(
            model, _BENCH_PROTOCOL, n_bins=_N_BINS, total_replicas=budget,
            pilot_per_bin=pilot, seed=seed_int, n_records=_N_RECORDS,
            store=store, obs=obs,
        )

    with obs.span("perf.bench.adaptive", quick=quick, seed=seed_int,
                  budgets=list(budgets)):
        points = []
        for budget in budgets:
            t0 = time.perf_counter()
            adaptive = run(budget, pilot=_PILOT)
            adaptive_wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            uniform = run(budget, pilot=budget // _N_BINS)
            uniform_wall = time.perf_counter() - t0
            points.append({
                "budget": budget,
                "adaptive_error": adaptive.rms_error,
                "uniform_error": uniform.rms_error,
                "adaptive_cpu_hours": adaptive.cpu_hours,
                "uniform_cpu_hours": uniform.cpu_hours,
                "adaptive_wall_s": adaptive_wall,
                "uniform_wall_s": uniform_wall,
                "allocations": adaptive.allocations(),
            })

        # Determinism leg at the middle budget: twin, cold store, warm
        # store — every digest must match the no-store run.
        probe = budgets[len(budgets) // 2]
        runs = [run(probe, pilot=_PILOT), run(probe, pilot=_PILOT)]
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-adaptive-") as tmp:
            store = ResultStore(f"{tmp}/store")
            runs += [run(probe, pilot=_PILOT, store=store),
                     run(probe, pilot=_PILOT, store=store)]
        deterministic = len({report.digest() for report in runs}) == 1

        doc = {
            "schema": SCHEMA_ADAPTIVE,
            "quick": quick,
            "seed": seed_int,
            "workload": {
                "kappa_pn": _BENCH_PROTOCOL.kappa_pn,
                "velocity": _BENCH_PROTOCOL.velocity,
                "distance": _BENCH_PROTOCOL.distance,
                "n_bins": _N_BINS,
                "pilot_per_bin": _PILOT,
                "n_records": _N_RECORDS,
            },
            "points": points,
            "determinism_budget": probe,
            "deterministic": bool(deterministic),
            "metrics": metrics_snapshot(obs),
        }
    if obs.enabled:
        last = points[-1]
        obs.metrics.set_gauge("perf.adaptive.error", last["adaptive_error"])
        obs.metrics.set_gauge("perf.adaptive.uniform_error",
                              last["uniform_error"])
    return doc
