"""The reduced-model pulling engine: one vectorised step loop for all groups.

:func:`run_pulling_groups` is the *only* vectorised step loop on the
reduced 1-D model.  Its input is a stack of independently seeded replica
groups — one group for a plain ensemble, or the missing store tasks of a
(kappa, v) cell — laid out as a single ``(total,)`` coordinate vector and
stepped with one NumPy operation per integration step.  It has two
callers: :func:`repro.smd.run_pulling_ensemble` (one group) and the window
step :meth:`repro.smd.plan.TaskResolver.resolve_window`, the one executor
every driver above runs through, which decides *which tasks share a call*
and nothing else; the per-replica scalar oracle (``kernel="reference"``)
is the one other integrator and exists to test this one.

Bit-identity contract
---------------------
Each group's results are bit-identical to running that group alone with
the same generator, because

* every update is an elementwise NumPy expression — elementwise ops are
  value-independent across array slots, so a group's slice of the stacked
  update equals the update of the group alone;
* per-step noise is drawn *per group* from that group's own generator into
  its contiguous slice of the stacked noise buffer
  (``rng.standard_normal(out=view)`` fills a contiguous view with the
  identical variates as a fresh ``standard_normal(m)`` allocation), so
  each generator consumes exactly the stream a solo run would.

The potential's derivative is evaluated once on the concatenated
coordinate vector; for :class:`~repro.pore.landscape.AxialLandscape` this
is a row-wise matvec, and a row slice of the stacked matvec equals the
matvec of the slice — for groups of two or more replicas.  A *one-replica*
group evaluated alone takes BLAS's one-row path, whose accumulation can
differ from the stacked evaluation at the ulp level; that is why the window
step stacks only tasks of two or more replicas and leaves a one-replica
task to its own single-group call.

This module draws **no randomness of its own**: callers pass fully formed
generators (derived via :func:`repro.rng.stream_for`), which is what makes
the batch placement-invariant — lint rule SPICE105 enforces this.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from .protocol import PullingProtocol
from .work import WorkEnsemble

__all__ = [
    "run_pulling_groups",
    "PAPER_CPU_HOURS_PER_NS",
    "DEFAULT_FORCE_SAMPLE_TIME",
]

#: Paper Section I: ~24 h on 128 processors per simulated ns -> 3072 CPU-h;
#: the paper rounds to "about 3000 CPU-hours ... to simulate 1 ns".
PAPER_CPU_HOURS_PER_NS: float = 3000.0

#: Default spring-force output stride, 2 ps — NAMD-scale output frequency
#: (every ~1000 steps of 2 fs).
DEFAULT_FORCE_SAMPLE_TIME: float = 2.0e-3


def _integration_grid(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    dt: Optional[float],
    n_records: int,
    force_sample_time: Optional[float],
) -> Tuple[float, float, int, int, int]:
    """Integration-grid derivation shared with the reference oracle.

    Returns ``(kappa, dt_eff, n_steps, stride, n_strides)``.
    """
    kappa = protocol.kappa_internal
    z_end = protocol.start_z + protocol.distance
    stiffness = kappa + model.max_curvature(protocol.start_z - 2.0, z_end + 2.0)
    if dt is None:
        dt = model.stable_timestep(stiffness)
    if dt <= 0.0:
        raise ConfigurationError("dt must be positive")

    duration = protocol.duration_ns
    n_steps = max(int(np.ceil(duration / dt)), n_records - 1)

    # Force-sampling stride in steps (>= 1).  The record stations must land
    # on sampling points so recorded work is always a completed trapezoid.
    if force_sample_time is not None:
        if force_sample_time <= 0.0:
            raise ConfigurationError("force_sample_time must be positive")
        stride = max(int(round(force_sample_time / (duration / n_steps))), 1)
    else:
        stride = 1
    # Round the step count up to a whole number of strides and at least
    # (n_records - 1) strides so records align with samples.
    n_strides = max(int(np.ceil(n_steps / stride)), n_records - 1)
    n_steps = n_strides * stride
    dt_eff = duration / n_steps
    return kappa, dt_eff, n_steps, stride, n_strides


def _record_schedule(n_strides: int, n_records: int) -> np.ndarray:
    """Stride indices at which to record, [0, ..., n_strides], increasing."""
    sched = np.round(np.linspace(0, n_strides, n_records)).astype(np.int64)
    for i in range(1, n_records):
        if sched[i] <= sched[i - 1]:
            sched[i] = sched[i - 1] + 1
    if sched[-1] > n_strides:
        raise ConfigurationError(
            f"cannot place {n_records} records in {n_strides} strides"
        )
    return sched


def _count_work(obs: Obs, n_samples: int, sim_ns: float,
                cpu_hours_per_ns: float) -> float:
    """Account one computed group; returns its paper-scale CPU-hours.

    Only computation actually performed is counted — store hits never
    reach an integrator, so they never reach here.
    """
    cpu_hours = sim_ns * cpu_hours_per_ns
    if obs.enabled:
        obs.metrics.inc("smd.je_samples", n_samples)
        obs.metrics.inc("smd.sim_ns", sim_ns)
        obs.metrics.inc("smd.cpu_hours", cpu_hours)
    return cpu_hours


def run_pulling_groups(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    groups: Sequence[Tuple[np.random.Generator, int]],
    *,
    dt: Optional[float] = None,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    cpu_hours_per_ns: float = PAPER_CPU_HOURS_PER_NS,
    obs: Optional[Obs] = None,
) -> List[WorkEnsemble]:
    """Pull several independently seeded replica groups as one batch.

    Parameters
    ----------
    groups:
        ``(generator, n_samples)`` pairs, one per group.  Generators must
        be fully formed :class:`numpy.random.Generator` instances (derive
        them with :func:`repro.rng.stream_for`); this function draws no
        randomness outside them.
    obs:
        Instrumentation handle; the whole batch runs inside one
        ``smd.ensemble`` host-clock span (its wall duration is the
        denominator of the run report's JE samples/sec), and every group
        adds to the ``smd.je_samples`` / ``smd.sim_ns`` / ``smd.cpu_hours``
        counters in input order.  Observation never touches the RNG.

    Returns
    -------
    One :class:`WorkEnsemble` per group, in input order.
    """
    if not groups:
        raise ConfigurationError("need at least one replica group")
    if n_records < 2:
        raise ConfigurationError("n_records must be at least 2")
    rngs = []
    sizes = []
    for g, (rng, m) in enumerate(groups):
        if not isinstance(rng, np.random.Generator):
            raise ConfigurationError(
                f"group {g}: batched execution needs a numpy Generator "
                f"(derive one with repro.rng.stream_for), got {type(rng).__name__}"
            )
        if m < 1:
            raise ConfigurationError(f"group {g}: n_samples must be at least 1")
        rngs.append(rng)
        sizes.append(int(m))
    bounds = [0, *accumulate(sizes)]
    total = bounds[-1]

    obs = as_obs(obs)
    kappa, dt_eff, n_steps, stride, n_strides = _integration_grid(
        model, protocol, dt, n_records, force_sample_time
    )
    # Travel origin and signed velocity: for a forward pull these are
    # exactly (start_z, velocity) — the historical expressions bit for bit;
    # a reverse pull starts at the window top and travels down.
    start = protocol.origin_z
    sgn = protocol.axis_sign

    with obs.span("smd.ensemble", kappa_pn=protocol.kappa_pn,
                  velocity=protocol.velocity, n_samples=total,
                  n_groups=len(sizes)):
        # Equilibrate every group in the static trap at the travel origin
        # (equilibrium initial ensemble: a precondition of Jarzynski's
        # equality), mirroring ReducedTranslocationModel.equilibrate term
        # by term.
        if kappa > 0.0:
            spread = np.sqrt(model.kT / kappa)
        else:
            spread = 1.0
        z = np.empty(total, dtype=np.float64)
        for g, rng in enumerate(rngs):
            z[bounds[g]:bounds[g + 1]] = (
                start + spread * rng.standard_normal(sizes[g])
            )
        # Group g owns the contiguous slice noise[bounds[g]:bounds[g+1]];
        # the views are built once and refilled every step.
        noise = np.empty(total, dtype=np.float64)
        views = [noise[bounds[g]:bounds[g + 1]] for g in range(len(rngs))]

        def advance(center: float) -> None:
            for rng, view in zip(rngs, views):
                rng.standard_normal(out=view)
            model.step_ensemble(z, dt_eff, None, spring_kappa=kappa,
                                spring_center=center, noise=noise)

        eq_ns = protocol.equilibration_ns
        for _ in range(int(np.ceil(eq_ns / dt_eff)) if eq_ns > 0 else 0):
            advance(start)

        record_at = _record_schedule(n_strides, n_records) * stride

        works = np.zeros((total, n_records), dtype=np.float64)
        positions = np.zeros((total, n_records), dtype=np.float64)
        displacements = np.zeros(n_records, dtype=np.float64)
        positions[:, 0] = z
        w = np.zeros(total, dtype=np.float64)

        # Signed velocity: +v forward (the same float, so forward results
        # keep their historical bits), -v reverse.  Recorded displacements
        # are trap *travel* |lam - origin|, ascending from 0 either way.
        v = protocol.signed_velocity
        exact = force_sample_time is None
        # Spring force sampled at the last completed sampling point.
        f_prev = kappa * (start - z)
        lam = start
        rec = 1
        for step in range(1, n_steps + 1):
            lam_new = start + v * step * dt_eff
            if exact:
                # Midpoint-in-lambda exact work for the trap move lam -> lam_new.
                w += kappa * (lam_new - lam) * (0.5 * (lam + lam_new) - z)
            lam = lam_new
            advance(lam)
            if not exact and step % stride == 0:
                f_now = kappa * (lam - z)
                # Trapezoid over the sampling interval: W += v dt_s (F0 + F1)/2.
                w += v * (stride * dt_eff) * 0.5 * (f_prev + f_now)
                f_prev = f_now
            if step == record_at[rec]:
                works[:, rec] = w
                positions[:, rec] = z
                displacements[rec] = (lam - start) * sgn
                rec += 1
        assert rec == n_records, "record schedule must consume all stations"

    per_replica_ns = protocol.duration_ns + protocol.equilibration_ns
    ensembles = []
    for g, m in enumerate(sizes):
        lo, hi = bounds[g], bounds[g + 1]
        ensembles.append(WorkEnsemble(
            protocol=protocol,
            displacements=displacements.copy(),
            works=works[lo:hi].copy(),
            positions=positions[lo:hi].copy(),
            temperature=model.temperature,
            cpu_hours=_count_work(obs, m, m * per_replica_ns,
                                  cpu_hours_per_ns),
        ))
    return ensembles
