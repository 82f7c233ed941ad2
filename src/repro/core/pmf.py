"""PMF reconstruction from work ensembles, through one front door.

The potential of mean force Phi along the pore axis (the paper's central
quantity) is estimated from a :class:`~repro.smd.work.WorkEnsemble` by
:func:`estimate_pmf`, the only way from pulls to a PMF.  The estimator is
a registry name; a registered function keeps the array signature
``fn(works, temperature, **kw) -> (g,)`` (a *paired* one, ``"fr"``, also
takes ``reverse_works=``), so dispatch adds nothing numerically.
:func:`check_estimator` is the one admission check for callers that hold
an estimator name.  The curve is the free energy of the *trap*
coordinate, F_kappa(lambda), not the surface U(z) itself; a
:class:`PMFEstimate` bundles it with its provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..smd.work import WorkEnsemble
from ..units import ROOM_TEMPERATURE
from .fr import check_fr_pair, fr_estimator, parallel_pull_estimator
from .jarzynski import block_estimator, cumulant_estimator, exponential_estimator

__all__ = ["PMFEstimate", "estimate_pmf", "register_estimator",
           "available_estimators", "check_estimator"]

#: name -> estimator callable ``(works, temperature, **kw) -> (g,)``.
_REGISTRY: Dict[str, Callable[..., np.ndarray]] = {}
#: Names of *paired* estimators, which also read a reverse ensemble.
_PAIRED = frozenset({"fr"})


@dataclass
class PMFEstimate:
    """An estimated free-energy profile.

    Attributes
    ----------
    displacements:
        ``(g,)`` trap displacements from the pull start (A).
    values:
        ``(g,)`` PMF (kcal/mol), zeroed at the first station.
    kappa_pn / velocity:
        Protocol parameters, for labelling.
    estimator:
        Which registered estimator produced the curve.
    n_samples:
        Ensemble size behind the estimate (both directions for ``"fr"``).
    cpu_hours:
        Modelled cost of the underlying ensemble(s).
    """

    displacements: np.ndarray
    values: np.ndarray
    kappa_pn: float
    velocity: float
    estimator: str
    n_samples: int
    temperature: float
    cpu_hours: float = 0.0

    def __post_init__(self) -> None:
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.displacements.shape != self.values.shape:
            raise ConfigurationError("displacement/value shape mismatch")

    def interpolated(self, displacements: np.ndarray) -> np.ndarray:
        """Linear interpolation onto another displacement grid."""
        d = np.asarray(displacements, dtype=np.float64)
        if d.min() < self.displacements[0] - 1e-9 or d.max() > self.displacements[-1] + 1e-9:
            raise AnalysisError("interpolation grid outside estimate support")
        return np.interp(d, self.displacements, self.values)

    def label(self) -> str:
        return f"kappa={self.kappa_pn:g}pN/A v={self.velocity:g}A/ns ({self.estimator})"


def register_estimator(name: str, fn: Callable[..., np.ndarray] = None):
    """Register ``fn`` under ``name``; usable directly or as a decorator.

    Re-registering a name raises :class:`~repro.errors.ConfigurationError`
    (shadowing a built-in would poison every call site that names it).
    ``fn`` must also take ``(m,)`` works: :func:`check_estimator` admits
    a name by calling it so.
    """

    def _register(func: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
        if name in _REGISTRY:
            raise ConfigurationError(f"estimator {name!r} already registered")
        if not callable(func):
            raise ConfigurationError(f"estimator {name!r} must be callable")
        _REGISTRY[name] = func
        return func

    if fn is None:
        return _register
    return _register(fn)


def available_estimators() -> tuple:
    """Registered estimator names, sorted."""
    return tuple(sorted(_REGISTRY))


def _lookup(name: str, paired: bool) -> Callable[..., np.ndarray]:
    """The registered function for ``name``, if its pairing matches."""
    fn = _REGISTRY.get(name)
    if fn is None:
        raise ConfigurationError(
            f"unknown estimator {name!r}; choose from {list(available_estimators())}")
    if (name in _PAIRED) != paired:
        why = ("needs paired forward/reverse data; forward-only callers "
               "cannot use it (the 'estimate' command serves it with "
               "--method fr)" if name in _PAIRED else "reads forward pulls "
               f"only; a reverse ensemble is for the paired {sorted(_PAIRED)}")
        raise ConfigurationError(f"estimator {name!r} {why}")
    return fn


def check_estimator(name: str, *, n_samples: int) -> None:
    """Admit ``name`` for a forward-only caller holding ``n_samples`` pulls:
    refuse (``ConfigurationError``) an unknown name, a paired estimator, or
    a sample count the estimator rejects when called once on zero works
    (so each minimum lives in the estimator's own check)."""
    fn = _lookup(name, paired=False)
    try:
        fn(np.zeros(n_samples), ROOM_TEMPERATURE)
    except Exception as exc:  # any refusal of the probe is a refusal of the name
        raise ConfigurationError(
            f"estimator {name!r} cannot use {n_samples} samples: {exc}") from None


def estimate_pmf(
    ensemble: WorkEnsemble,
    estimator: str = "exponential",
    *,
    reverse: Optional[WorkEnsemble] = None,
    **estimator_kwargs,
) -> PMFEstimate:
    """Estimate the PMF from a work ensemble.

    ``estimator`` is any name in :func:`available_estimators`
    (``"exponential"``, ``"cumulant"``, ``"block"``, ``"parallel-pull"``,
    ``"fr"``); ``estimator_kwargs`` pass through unchanged (e.g.
    ``n_blocks=8``).  ``reverse``, the window's mirrored reverse ensemble,
    is for a paired estimator only: the pair is checked by
    :func:`~repro.core.fr.check_fr_pair`, and the estimate books both.
    """
    fn = _lookup(estimator, paired=reverse is not None)
    pulls = [ensemble]
    if reverse is not None:
        check_fr_pair(ensemble, reverse)
        pulls.append(reverse)
        estimator_kwargs["reverse_works"] = reverse.works
    values = np.asarray(fn(ensemble.works, ensemble.temperature,
                           **estimator_kwargs), dtype=float)
    return PMFEstimate(
        displacements=ensemble.displacements.copy(),
        values=values - values[0],
        kappa_pn=ensemble.protocol.kappa_pn,
        velocity=ensemble.protocol.velocity,
        estimator=estimator,
        n_samples=sum(e.n_samples for e in pulls),
        temperature=ensemble.temperature,
        cpu_hours=sum(e.cpu_hours for e in pulls),
    )


register_estimator("exponential", exponential_estimator)
register_estimator("cumulant", cumulant_estimator)
register_estimator("block", block_estimator)
register_estimator("fr", fr_estimator)
register_estimator("parallel-pull", parallel_pull_estimator)
