"""Paired forward/reverse pulling: the raw material of the FR estimator.

The forward–reverse method (Kosztin et al., PAPERS.md) needs two work
ensembles over the *same* window: a forward pull (trap travelling
``start_z -> start_z + distance``) and its time-mirrored reverse pull.
:func:`run_bidirectional_ensemble` runs both from one base seed with
disjoint, deterministic RNG streams, so the pair is reproducible and
store-addressable as two distinct tasks (the reverse protocol's
``direction`` field enters the fingerprint).

Stream discipline: the forward leg draws ``stream_for(seed, "smd.bidir",
"fwd")`` and the reverse leg ``stream_for(seed, "smd.bidir", "rev")`` —
the legs never share variates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_seed_int, stream_for
from .ensemble import (
    DEFAULT_FORCE_SAMPLE_TIME,
    PAPER_CPU_HOURS_PER_NS,
    run_pulling_ensemble,
)
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
    n_reverse: Optional[int] = None,
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
    n_samples / n_reverse:
        Replicas for the forward leg, and optionally a different count for
        the reverse leg (default: same as forward).
    seed:
        Base seed; the two legs draw the disjoint streams
        ``stream_for(seed, "smd.bidir", "fwd" | "rev")``.
    store:
        Optional result store; each leg memoizes under its own
        direction-distinguished fingerprint.
    obs / dt / n_records / force_sample_time / cpu_hours_per_ns:
        As in :func:`~repro.smd.ensemble.run_pulling_ensemble`.
    """
    if protocol.direction != "forward":
        raise ConfigurationError(
            "run_bidirectional_ensemble takes the forward protocol of the "
            "pair; it derives the reverse leg itself"
        )
    if n_reverse is None:
        n_reverse = n_samples
    if n_samples < 1 or n_reverse < 1:
        raise ConfigurationError("both legs need at least 1 replica")
    obs = as_obs(obs)
    base = as_seed_int(seed)

    with obs.span("smd.bidirectional", kappa_pn=protocol.kappa_pn,
                  velocity=protocol.velocity, n_forward=n_samples,
                  n_reverse=n_reverse):
        forward = run_pulling_ensemble(
            model, protocol, n_samples, dt=dt, n_records=n_records,
            force_sample_time=force_sample_time,
            seed=stream_for(base, "smd.bidir", "fwd"),
            cpu_hours_per_ns=cpu_hours_per_ns, obs=obs, store=store,
            store_key=(base, "smd.bidir", "fwd"),
        )
        reverse = run_pulling_ensemble(
            model, protocol.reversed(), n_reverse, dt=dt,
            n_records=n_records, force_sample_time=force_sample_time,
            seed=stream_for(base, "smd.bidir", "rev"),
            cpu_hours_per_ns=cpu_hours_per_ns, obs=obs, store=store,
            store_key=(base, "smd.bidir", "rev"),
        )
    return BidirectionalEnsemble(forward=forward, reverse=reverse)
