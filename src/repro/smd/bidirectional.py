"""Paired forward/reverse pulling: the raw material of the FR estimator.

The forward–reverse method (Kosztin et al., PAPERS.md) needs two work
ensembles over the *same* window: a forward pull (trap travelling
``start_z -> start_z + distance``) and its time-mirrored reverse pull.
:func:`run_bidirectional_ensemble` is a two-cell plan
(:func:`repro.smd.plan.run_cells`): both legs share one stacked engine
call, draw disjoint deterministic RNG streams from one base seed, and are
store-addressable as two distinct tasks (the reverse protocol's
``direction`` field enters the fingerprint).

Stream discipline: the forward leg is the cell ``("smd.bidir", "fwd")``
and draws ``stream_for(seed, "smd.bidir", "fwd")``, the reverse leg
``("smd.bidir", "rev")`` — the legs never share variates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike
from .batched import DEFAULT_FORCE_SAMPLE_TIME, PAPER_CPU_HOURS_PER_NS
from .plan import run_cells
from .protocol import PullingProtocol
from .work import WorkEnsemble

__all__ = ["BidirectionalEnsemble", "run_bidirectional_ensemble"]


@dataclass(frozen=True)
class BidirectionalEnsemble:
    """A matched forward/reverse work-ensemble pair over one window."""

    forward: WorkEnsemble
    reverse: WorkEnsemble

    @property
    def cpu_hours(self) -> float:
        return self.forward.cpu_hours + self.reverse.cpu_hours

    @property
    def n_samples(self) -> int:
        """Total replica budget across both legs."""
        return self.forward.n_samples + self.reverse.n_samples


def run_bidirectional_ensemble(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    n_samples: int,
    *,
    dt: Optional[float] = None,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    seed: SeedLike = None,
    cpu_hours_per_ns: float = PAPER_CPU_HOURS_PER_NS,
    obs: Optional[Obs] = None,
    store=None,
) -> BidirectionalEnsemble:
    """Run the matched forward and reverse pulls of one window.

    Parameters
    ----------
    protocol:
        The *forward* protocol of the pair (``direction="forward"``); the
        reverse leg runs ``protocol.reversed()``.  Passing a reverse
        protocol is a configuration error — the pair is canonically named
        by its forward member.
    n_samples:
        Replicas per leg.
    seed:
        Base seed; the two legs draw the disjoint streams
        ``stream_for(seed, "smd.bidir", "fwd" | "rev")``.
    store:
        Optional result store; each leg is one task, memoized under its
        own direction-distinguished fingerprint.
    obs / dt / n_records / force_sample_time / cpu_hours_per_ns:
        As in :func:`~repro.smd.ensemble.run_pulling_ensemble`.
    """
    if protocol.direction != "forward":
        raise ConfigurationError(
            "run_bidirectional_ensemble takes the forward protocol of the "
            "pair; it derives the reverse leg itself"
        )
    obs = as_obs(obs)
    fwd, rev = ("smd.bidir", "fwd"), ("smd.bidir", "rev")
    with obs.span("smd.bidirectional", kappa_pn=protocol.kappa_pn,
                  velocity=protocol.velocity, n_samples=n_samples):
        legs = run_cells(
            model, [(protocol, fwd), (protocol.reversed(), rev)], None,
            n_samples, seed=seed, store=store, dt=dt, n_records=n_records,
            force_sample_time=force_sample_time,
            cpu_hours_per_ns=cpu_hours_per_ns, obs=obs)
    return BidirectionalEnsemble(forward=legs[fwd], reverse=legs[rev])
