"""(kappa, v) parameter optimization — the paper's Section IV logic.

There is "no analytical method that provides a direct means to determine the
best parameters" (Section IV), so SPICE searches a grid: run a pulling
ensemble per cell, compute the cost-normalized statistical error and the
systematic error, and pick the cell minimizing the combined error — with the
paper's tie-break: among cells whose PMFs are statistically
indistinguishable, prefer the one yielding more samples per unit cost at
equal accuracy (the slowest *adequate* velocity at the tradeoff kappa).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..obs import Obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import stream_for
from ..smd.plan import cell_labels
from ..smd.protocol import PullingProtocol, parameter_grid
from ..smd.work import WorkEnsemble
from .error_analysis import ErrorBudget, analyze_ensemble, pairwise_consistency
from .pmf import PMFEstimate, estimate_pmf

__all__ = ["ParameterStudyResult", "run_parameter_study", "select_optimal"]

#: The "insignificant difference" threshold (kcal/mol) of the velocity
#: tie-break (Section IV-C).
CONSISTENCY_TOLERANCE = 2.0


@dataclass
class ParameterStudyResult:
    """Everything the Fig. 4 reproduction needs, for every grid cell."""

    ensembles: Dict[Tuple[float, float], WorkEnsemble]
    estimates: Dict[Tuple[float, float], PMFEstimate]
    budgets: Dict[Tuple[float, float], ErrorBudget]
    reference_displacements: np.ndarray
    reference_pmf: np.ndarray
    optimal: Tuple[float, float]

    @property
    def kappas(self) -> list[float]:
        return sorted({k for k, _ in self.estimates})

    @property
    def velocities(self) -> list[float]:
        return sorted({v for _, v in self.estimates})

    def estimates_at_kappa(self, kappa: float) -> list[PMFEstimate]:
        """PMF curves for one kappa across all velocities (Fig. 4a-c panels)."""
        return [self.estimates[(kappa, v)] for v in self.velocities
                if (kappa, v) in self.estimates]

    def estimates_at_velocity(self, velocity: float) -> list[PMFEstimate]:
        """PMF curves for one velocity across all kappas (Fig. 4d panel)."""
        return [self.estimates[(k, velocity)] for k in self.kappas
                if (k, velocity) in self.estimates]

    def budget_table(self) -> list[ErrorBudget]:
        """Budgets sorted by (kappa, v) for tabular reporting."""
        return [self.budgets[key] for key in sorted(self.budgets)]


def run_parameter_study(
    model: ReducedTranslocationModel,
    protocols: Optional[Iterable[PullingProtocol]] = None,
    n_samples: int = 32,
    n_records: int = 41,
    n_bootstrap: int = 100,
    estimator: str = "exponential",
    seed: int = 2005,
    obs: Optional[Obs] = None,
    store=None,
    samples_per_task: Optional[int] = None,
    dlq=None,
) -> ParameterStudyResult:
    """Run the full (kappa, v) grid study on the reduced model.

    Every cell runs ``n_samples`` pulls with its own deterministic RNG
    stream (keyed by the cell parameters, so adding cells never perturbs
    existing ones).  The reference PMF is the model's exact potential.
    ``obs`` is forwarded to every pulling ensemble (see :mod:`repro.obs`).

    ``samples_per_task`` decomposes each cell into
    ``n_samples / samples_per_task`` restartable tasks, each its own RNG
    stream and — with ``store`` attached — its own store record (it must
    divide ``n_samples`` evenly).  ``None`` keeps the historical unsplit
    per-cell streams, bit-identical to earlier releases; a ``store`` then
    memoizes at whole-cell granularity.

    Either way the study is one task plan resolved by the one executor
    (:func:`~repro.workflow.streaming.run_streamed_study`): ``protocols``
    may be any iterable — including a generator, consumed one cell at a
    time — the missing tasks of a cell are pulled in one stacked engine
    call, and with a ``store`` a killed study re-run recomputes only the
    missing tasks.  ``dlq`` enables degraded completion: a terminally
    failing task is dead-lettered and its cell omitted from the result
    instead of raising.
    """
    # core sits below workflow; the executor is imported where it is used.
    from ..workflow.streaming import run_streamed_study

    if protocols is None:
        protocols = parameter_grid()

    # Every protocol that streams past, keyed by (kappa, v) in order;
    # ``protocols`` may be a generator, so the shape check rides along.
    seen: Dict[Tuple[float, float], PullingProtocol] = {}

    def checked() -> Iterator[PullingProtocol]:
        for proto in protocols:
            first = next(iter(seen.values()), proto)
            if (proto.distance, proto.start_z) != (first.distance,
                                                   first.start_z):
                raise ConfigurationError(
                    "all protocols must share distance and start")
            seen[(proto.kappa_pn, proto.velocity)] = proto
            yield proto

    merged, _report = run_streamed_study(
        model, checked(), n_samples=n_samples,
        samples_per_task=samples_per_task, seed=seed, store=store,
        dlq=dlq, n_records=n_records, obs=obs,
    )
    if not seen:
        raise ConfigurationError("no protocols to study")
    # Cells with dead-lettered tasks are absent from ``merged`` — the
    # degraded-completion contract.
    ensembles = {key: merged[labels] for key, proto in seen.items()
                 if (labels := cell_labels(proto)) in merged}
    reference_velocity = min(p.velocity for p in seen.values())

    estimates: Dict[Tuple[float, float], PMFEstimate] = {}
    budgets: Dict[Tuple[float, float], ErrorBudget] = {}
    ref_disp: Optional[np.ndarray] = None
    ref_pmf: Optional[np.ndarray] = None
    for key, ens in ensembles.items():
        proto = seen[key]
        estimates[key] = estimate_pmf(ens, estimator=estimator)
        if ref_disp is None:
            ref_disp = ens.displacements
            ref_pmf = model.reference_pmf(proto.start_z + ref_disp)
        budgets[key] = analyze_ensemble(
            ens,
            reference=ref_pmf,
            reference_velocity=reference_velocity,
            estimator=estimator,
            n_bootstrap=n_bootstrap,
            seed=stream_for(seed, "boot", *cell_labels(proto)[1:]),
        )

    if ref_disp is None or ref_pmf is None:
        raise AnalysisError(
            "no study cell completed: every task was dead-lettered")
    optimal = select_optimal(budgets, estimates)
    return ParameterStudyResult(
        ensembles=ensembles,
        estimates=estimates,
        budgets=budgets,
        reference_displacements=ref_disp,
        reference_pmf=ref_pmf - ref_pmf[0],
        optimal=optimal,
    )


def select_optimal(
    budgets: Dict[Tuple[float, float], ErrorBudget],
    estimates: Dict[Tuple[float, float], PMFEstimate],
) -> Tuple[float, float]:
    """Pick the optimal (kappa, v) from per-cell error budgets.

    Two-stage rule mirroring Section IV:

    1. choose the kappa whose cells have the lowest *median* combined error
       across velocities (the paper argues panel-by-panel — kappa = 10 is
       rejected for systematic error, 1000 for noise — so the kappa
       decision aggregates over v; the median is robust to one noisy cell);
    2. within that kappa, find the slowest velocity group whose PMFs are
       mutually consistent within :data:`CONSISTENCY_TOLERANCE` and whose
       combined errors are comparable, then return the *slowest* velocity in the group —
       slower pulls "sample correctly" (the paper picks v = 12.5 over 25
       despite equal PMFs).
    """
    if not budgets:
        raise AnalysisError("no budgets to optimize over")

    by_kappa: Dict[float, list[ErrorBudget]] = {}
    for (k, _v), b in budgets.items():
        by_kappa.setdefault(k, []).append(b)

    best_kappa = min(
        by_kappa,
        key=lambda k: float(np.median([b.sigma_total for b in by_kappa[k]])),
    )
    cells = sorted(by_kappa[best_kappa], key=lambda b: b.velocity)
    best_total = min(b.sigma_total for b in cells)

    # Velocities whose combined error is within tolerance of the kappa's best.
    adequate = [b for b in cells
                if b.sigma_total <= best_total + CONSISTENCY_TOLERANCE]
    if len(adequate) >= 2:
        # Check PMF consistency across adequate velocities (the paper's
        # "insignificant difference in PMF values" criterion).
        ests = [estimates[(best_kappa, b.velocity)] for b in adequate]
        if pairwise_consistency(ests) <= CONSISTENCY_TOLERANCE:
            return (best_kappa, adequate[0].velocity)
    # Fall back to the outright minimum cell at the chosen kappa.
    best = min(cells, key=lambda b: b.sigma_total)
    return (best_kappa, best.velocity)
