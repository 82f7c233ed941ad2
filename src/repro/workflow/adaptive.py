"""Adaptive replica allocation: spend the budget where the PMF is hardest.

A uniform campaign gives every pulling window the same number of replicas,
but the Jarzynski error is wildly non-uniform along the pore axis: windows
crossing a barrier dissipate more, their work spread grows, and the
exponential average needs far more samples there than on quiet stretches.
:func:`run_adaptive_campaign` exploits that:

1. **Pilot** — every window (``n_bins`` consecutive sub-trajectory windows
   of the base protocol, per Section IV-A stratification) runs a small
   pilot ensemble of ``pilot_per_bin`` replicas.
2. **Diagnose** — each window's pilot final works are scored by the one
   seeded resampler (:func:`repro.core.bootstrap_error`, ``n_blocks``
   blocks): the bias²+variance ``mse`` of the chosen estimator is the
   window's expected squared error.
3. **Reallocate** — the remaining replica budget is apportioned to windows
   proportionally to ``sqrt(mse)`` (the optimal allocation under the
   ``error² ~ mse/n`` sampling law) by the deterministic largest-remainder
   method, ties broken toward the lower window index.
4. **Refine** — each window extends its own task stream (its cell's task
   range starts where the pilot's ended), so the merged pilot+refine
   ensemble is bit-identical to a single run of ``pilot + extra`` tasks;
   the per-window PMFs are stitched (:func:`repro.smd.stitch_pmfs`) into
   the full profile.

Each round is one task plan over the windows' cells ``("adaptive", "bin",
b)`` (:func:`repro.smd.plan.run_cells`) — one stacked engine call for the
pilot, one for the refinement — driven by ``stream_for(seed, "adaptive",
"bin", b, "task", t)`` streams, so the controller is deterministic end to
end: rerunning or attaching a (cold or warm) result store reproduces the
same bits (:meth:`AdaptiveReport.digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core import bootstrap_error, check_estimator, estimate_pmf, pmf_error
from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_seed_int, stream_for
from ..smd.plan import run_cells
from ..smd.protocol import PullingProtocol
from ..smd.subtrajectory import plan_subtrajectories, stitch_pmfs
from ..smd.work import WorkEnsemble

__all__ = [
    "BinReport",
    "AdaptiveReport",
    "allocate_largest_remainder",
    "run_adaptive_campaign",
]


def allocate_largest_remainder(weights: List[float], total: int) -> List[int]:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Deterministic largest-remainder (Hamilton) apportionment: each bin gets
    the floor of its exact quota, and the leftover units go to the largest
    fractional remainders, ties broken toward the lower index.  All-zero
    (or empty-sum) weights degrade to round-robin from index 0 — the
    uniform-allocation limit.
    """
    if total < 0:
        raise ConfigurationError("cannot allocate a negative total")
    if not weights or any(w < 0 for w in weights):
        raise ConfigurationError("weights must be non-empty and non-negative")
    n = len(weights)
    wsum = float(sum(weights))
    if wsum <= 0.0:
        base, leftover = divmod(total, n)
        return [base + (1 if i < leftover else 0) for i in range(n)]
    quotas = [total * float(w) / wsum for w in weights]
    out = [int(np.floor(q)) for q in quotas]
    leftover = total - sum(out)
    # Sort by descending remainder, then ascending index (deterministic).
    order = sorted(range(n), key=lambda i: (-(quotas[i] - out[i]), i))
    for i in order[:leftover]:
        out[i] += 1
    return out


@dataclass(frozen=True)
class BinReport:
    """Diagnostics and allocation outcome for one pulling window."""

    index: int
    start_z: float
    distance: float
    pilot: int
    extra: int
    score: float
    bias: float
    variance: float
    spread_kT: float

    @property
    def total(self) -> int:
        return self.pilot + self.extra


@dataclass
class AdaptiveReport:
    """Outcome of one adaptive campaign.

    ``z``/``pmf`` is the stitched full-window profile; ``rms_error`` its
    RMS deviation from the model's analytic reference PMF (kcal/mol);
    ``results`` maps window index to the merged pilot+refine ensemble.
    """

    bins: List[BinReport]
    z: np.ndarray
    pmf: np.ndarray
    rms_error: float
    pilot_per_bin: int
    total_replicas: int
    cpu_hours: float
    estimator: str
    seed: int
    results: Dict[int, WorkEnsemble] = field(default_factory=dict)

    def allocations(self) -> List[int]:
        """Replicas per window, pilot included."""
        return [b.total for b in self.bins]

    def digest(self) -> str:
        """SHA-256 over every work array and the stitched profile.

        Byte-reproducibility witness: two runs agree on this digest iff
        they agree bit for bit on all underlying physics.
        """
        h = hashlib.sha256()
        for i in sorted(self.results):
            ens = self.results[i]
            h.update(np.ascontiguousarray(ens.works).tobytes())
            h.update(np.ascontiguousarray(ens.positions).tobytes())
        h.update(np.ascontiguousarray(self.z).tobytes())
        h.update(np.ascontiguousarray(self.pmf).tobytes())
        return h.hexdigest()


def run_adaptive_campaign(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    *,
    n_bins: int = 4,
    total_replicas: int,
    pilot_per_bin: int = 4,
    samples_per_task: int = 2,
    seed: SeedLike = 2005,
    estimator: str = "exponential",
    store: Any = None,
    n_records: int = 21,
    n_boot: int = 32,
    n_blocks: int = 4,
    obs: Optional[Obs] = None,
) -> AdaptiveReport:
    """Pilot → diagnose → reallocate → refine over one long pull.

    Parameters
    ----------
    protocol:
        The full-window forward protocol (a reverse one is refused: the
        windows are stitched ascending); it is split into ``n_bins``
        consecutive sub-trajectory windows.
    total_replicas:
        Whole campaign budget in replicas; must cover the pilot,
        ``total_replicas >= n_bins * pilot_per_bin``.  The remainder is
        the adaptive pool.
    pilot_per_bin:
        Pilot replicas per window; must support ``n_blocks`` bootstrap
        blocks.
    samples_per_task:
        Replicas per store task — the allocation granularity; both
        ``total_replicas`` and ``pilot_per_bin`` must be multiples of it.
        Each round's tasks share one stacked engine call
        (:meth:`repro.smd.plan.TaskResolver.resolve_window`); the value
        enters every task descriptor, so it is part of the digest.
    estimator:
        Any *unpaired* registry estimator used per window (the windows are
        forward-only).
    store:
        Optional result store: every round's tasks are memoized in it,
        so a re-run resolves from hits — bit-identical by construction.
    n_boot / n_blocks:
        Resampling shape of the per-window score (``n_blocks`` in-order
        blocks of the pilot replicas, ``n_boot`` resamples); the
        resampling stream is independent of the physics streams.

    Returns an :class:`AdaptiveReport`; ``report.digest()`` is the
    byte-reproducibility witness across reruns and stores.
    """
    if protocol.direction != "forward":
        raise ConfigurationError(
            "run_adaptive_campaign takes a forward protocol; its windows "
            "are forward-only and stitched ascending")
    if n_bins < 1:
        raise ConfigurationError("n_bins must be at least 1")
    if samples_per_task < 1:
        raise ConfigurationError("samples_per_task must be at least 1")
    if pilot_per_bin < max(2, n_blocks):
        raise ConfigurationError(
            f"pilot_per_bin must be >= max(2, n_blocks={n_blocks}) so the "
            "pilot can be block-bootstrapped")
    if pilot_per_bin % samples_per_task or total_replicas % samples_per_task:
        raise ConfigurationError(
            f"pilot_per_bin ({pilot_per_bin}) and total_replicas "
            f"({total_replicas}) must be multiples of samples_per_task "
            f"({samples_per_task}) — the allocation granularity")
    if total_replicas < n_bins * pilot_per_bin:
        raise ConfigurationError(
            f"total_replicas ({total_replicas}) cannot cover the pilot "
            f"({n_bins} bins x {pilot_per_bin})")
    # Adaptive windows are forward-only; a bin holds at least the pilot.
    check_estimator(estimator, n_samples=pilot_per_bin)

    obs = as_obs(obs)
    base = as_seed_int(seed)
    protos = plan_subtrajectories(
        protocol, total_distance=protocol.distance,
        window=protocol.distance / n_bins).protocols
    cells = [("adaptive", "bin", b) for b in range(n_bins)]
    plan = dict(seed=base, store=store, n_records=n_records, obs=obs)

    with obs.span("workflow.adaptive", n_bins=n_bins,
                  total_replicas=total_replicas,
                  pilot_per_bin=pilot_per_bin):
        pilot_tasks = pilot_per_bin // samples_per_task
        pilots = run_cells(model, zip(protos, cells), pilot_tasks,
                           samples_per_task, **plan)
        # Window b resamples on its own stream, apart from the physics;
        # tests/test_error_bar_values.py pins the scores this key draws.
        diagnostics = [
            bootstrap_error(
                pilots[cell].final_works(), pilots[cell].temperature,
                estimator, stream_for(as_seed_int(stream_for(
                    base, "adaptive", "score", b)), "core.block_bootstrap"),
                n_boot=n_boot, n_blocks=n_blocks)
            for b, cell in enumerate(cells)]
        obs.inc("adaptive.pilot_replicas", n_bins * pilot_per_bin)

        pool_tasks = (total_replicas - n_bins * pilot_per_bin) \
            // samples_per_task
        weights = [float(np.sqrt(d.mse)) for d in diagnostics]
        extra_tasks = allocate_largest_remainder(weights, pool_tasks)
        # Every cell names its own task range, so no plan-wide count.
        refines = run_cells(
            model,
            [(proto, cell, range(pilot_tasks, pilot_tasks + extra))
             for proto, cell, extra in zip(protos, cells, extra_tasks)],
            None, samples_per_task, **plan)
        if pool_tasks:
            obs.inc("adaptive.refine_replicas", pool_tasks * samples_per_task)

        results: Dict[int, WorkEnsemble] = {}
        bins: List[BinReport] = []
        for b, (proto, cell, diag, extra) in enumerate(
                zip(protos, cells, diagnostics, extra_tasks)):
            merged = pilots[cell]
            if cell in refines:
                merged = merged.merged_with(refines[cell])
            results[b] = merged
            bins.append(BinReport(
                index=b, start_z=proto.start_z, distance=proto.distance,
                pilot=pilot_per_bin, extra=extra * samples_per_task,
                score=float(diag.mse), bias=float(diag.bias),
                variance=float(diag.variance),
                spread_kT=merged.dissipated_width(),
            ))

        disps = [results[b].displacements for b in range(n_bins)]
        pmfs = [estimate_pmf(results[b], estimator=estimator).values
                for b in range(n_bins)]
        starts = [p.start_z for p in protos]
        z, pmf = stitch_pmfs(disps, pmfs, starts)
        rms = pmf_error(pmf, model.reference_pmf(z))

    return AdaptiveReport(
        bins=bins,
        z=z,
        pmf=pmf,
        rms_error=rms,
        pilot_per_bin=pilot_per_bin,
        total_replicas=total_replicas,
        cpu_hours=float(sum(e.cpu_hours for e in results.values())),
        estimator=estimator,
        seed=base,
        results=results,
    )
