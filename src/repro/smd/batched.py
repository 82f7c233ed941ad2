"""The reduced-model pulling engine: one vectorised step loop per stack.

:func:`run_pulling_stack` is the *only* vectorised step loop on the reduced
1-D model.  Its input is a stack of independently seeded *pulls* —
``(protocol, generator, n_samples)`` replica groups, e.g. the missing store
tasks of a window — laid out as a single ``(total,)`` coordinate vector and
stepped with one NumPy operation per integration step.  Pulls that share a
protocol form a *cell*; cells differ in spring constant, timestep, step
count and trap path, so kappa, ``dt / zeta``, the trap centre and the
noise (scaled by ``sqrt(2 kT dt / zeta)``) ride per replica, cells are laid
out longest first (the replicas still integrating are always a prefix
``z[:n]``), and
what a cell does on its own clock — start its pull after equilibration,
sample the spring force every stride, record a station, finish — is a
sparse event on that cell's slice.  :func:`repro.smd.run_pulling_ensemble`
(one group) is the one-cell spelling of the same loop; the window step
:meth:`repro.smd.plan.TaskResolver.resolve_window`, the one executor every
driver above runs through, decides *which tasks share a call* and nothing
else; the per-replica scalar oracle (``kernel="reference"``) is the one
other integrator and exists to test this one.

Bit-identity contract
---------------------
Each pull's results are bit-identical to running that pull alone with the
same generator, because

* every update is an elementwise NumPy expression — elementwise ops are
  value-independent across array slots, so a pull's slice of the stacked
  update equals the update of the pull alone;
* the per-replica parameter vectors enter those expressions elementwise,
  in the operand order a one-protocol run uses its scalars: slot ``i`` of
  ``kappa_vec * (centre_vec - z)`` is the product ``kappa * (centre -
  z[i])`` of that replica's own cell, whatever its neighbours carry;
* noise is drawn *per pull* from that pull's own generator, a block of
  steps at a time: ``rng.standard_normal((rows, m))`` yields exactly the
  variates of ``rows`` successive ``(m,)`` draws, and a block never holds
  more rows than the pull's cell has steps left, so every generator
  consumes exactly the stream a solo run would and ends in the same state.

The potential's derivative is evaluated once per step on the active prefix
of the coordinate vector, by the evaluator
:meth:`~repro.pore.reduced.Potential1D.stacked_derivative` binds for the
stack — work buffers allocated once per call, bit for bit ``derivative`` on
the prefix.  For :class:`~repro.pore.landscape.AxialLandscape` this
is a row-wise matvec, and a row slice of the stacked matvec equals the
matvec of the slice — for pulls of two or more replicas.  A *one-replica*
pull evaluated alone takes BLAS's one-row product, whose accumulation can
differ from a row of the flat matvec at the ulp level.  So a stack in which
*every* pull has one replica — a window of one-replica tasks — binds the
evaluator for a column instead: by the leading-axis contract of
:class:`~repro.pore.reduced.Potential1D` each row of an ``(n, 1)`` argument
is evaluated as it would be alone, i.e. as the same one-row product, so
such a stack is bit-identical to its solo calls too (the engine checks the
evaluator's output shape once at set-up).  A stack that
*mixes* one-replica pulls with larger ones keeps the flat evaluation, and
its one-replica members keep the ulp caveat; no plan builds such a stack
(:class:`repro.smd.plan.PlanStack` has one replica count).

The loop spells out the Euler-Maruyama update of
:meth:`~repro.pore.reduced.ReducedTranslocationModel.step_ensemble` term by
term instead of calling it, because that method takes one scalar kappa and
timestep; ``tests/test_pore_reduced.py`` keeps covering the method, and the
oracle comparisons in ``tests/test_smd_batched.py`` pin the two together.
Every term is written in place into buffers allocated once: the noise
block is pre-scaled at refill (``scale * normals``, the product the step
would form), and the displacement is built in one buffer as ``kappa
(centre - z) - dU/dz``, which is exactly the method's ``(-dU/dz) + kappa
(centre - z)`` (``DESIGN.md`` §11 lists the rules such rewrites rely on).

This module draws **no randomness of its own**: callers pass fully formed
generators (derived via :func:`repro.rng.stream_for`), which is what makes
the batch placement-invariant — lint rule SPICE105 enforces this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from .protocol import PullingProtocol
from .work import WorkEnsemble

__all__ = [
    "run_pulling_stack",
    "PAPER_CPU_HOURS_PER_NS",
    "DEFAULT_FORCE_SAMPLE_TIME",
]

#: Paper Section I: ~24 h on 128 processors per simulated ns -> 3072 CPU-h;
#: the paper rounds to "about 3000 CPU-hours ... to simulate 1 ns".
PAPER_CPU_HOURS_PER_NS: float = 3000.0

#: Default spring-force output stride, 2 ps — NAMD-scale output frequency
#: (every ~1000 steps of 2 fs).
DEFAULT_FORCE_SAMPLE_TIME: float = 2.0e-3

#: Integration steps whose noise and trap centres are laid out per refill:
#: one generator call per pull per block instead of one per step.  The
#: block buffers are ``_BLOCK_STEPS x replicas x 8 B`` each.
_BLOCK_STEPS: int = 64


def _integration_grid(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    n_records: int,
    force_sample_time: Optional[float],
) -> Tuple[float, float, int, int, int]:
    """Integration-grid derivation shared with the reference oracle: where
    a pull's timestep (the model's stability criterion for the combined
    spring + landscape stiffness) and step grid are chosen.

    Returns ``(kappa, dt_eff, n_steps, stride, n_strides)``.
    """
    kappa = protocol.kappa_internal
    z_end = protocol.start_z + protocol.distance
    stiffness = kappa + model.max_curvature(protocol.start_z - 2.0, z_end + 2.0)
    dt = model.stable_timestep(stiffness)

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


def _count_work(obs: Obs, n_samples: int, sim_ns: float) -> float:
    """Account one computed group; returns its paper-scale CPU-hours.

    Only computation actually performed is counted — store hits never
    reach an integrator, so they never reach here.
    """
    cpu_hours = sim_ns * PAPER_CPU_HOURS_PER_NS
    if obs.enabled:
        obs.metrics.inc("smd.je_samples", n_samples)
        obs.metrics.inc("smd.sim_ns", sim_ns)
        obs.metrics.inc("smd.cpu_hours", cpu_hours)
    return cpu_hours


class _Cell:
    """The pulls of a stack that share one protocol: one integration grid,
    one contiguous slice ``[lo, hi)`` of the stacked vectors, one event
    schedule.  All step counts are on the stack's clock ``t`` (iterations
    completed); the cell equilibrates for ``eq_steps`` of them, pulls for
    ``n_steps`` more and leaves the stack at ``end``."""

    def __init__(self, model: ReducedTranslocationModel,
                 protocol: PullingProtocol, n_records: int,
                 force_sample_time: Optional[float]) -> None:
        self.protocol = protocol
        (self.kappa, self.dt, self.n_steps, self.stride,
         n_strides) = _integration_grid(model, protocol, n_records,
                                        force_sample_time)
        self.scale = np.sqrt(2.0 * model.kT * self.dt / model.friction)
        eq_ns = protocol.equilibration_ns
        self.eq_steps = int(np.ceil(eq_ns / self.dt)) if eq_ns > 0 else 0
        self.end = self.eq_steps + self.n_steps
        self.record_at = _record_schedule(n_strides, n_records) * self.stride
        # Travel origin and signed velocity: for a forward pull these are
        # exactly (start_z, velocity) — the historical expressions bit for
        # bit; a reverse pull starts at the window top and travels down.
        self.start = protocol.origin_z
        self.v = protocol.signed_velocity
        #: Input indices of the cell's pulls; ``[lo, hi)`` spans them all.
        self.members: List[int] = []
        self.lo = self.hi = 0
        self.displacements = np.zeros(n_records, dtype=np.float64)
        self.rec = 1

    def trap(self, steps: np.ndarray) -> np.ndarray:
        """Trap centre after ``steps`` pull steps (the travel origin while
        the cell still equilibrates, ``steps < 1``)."""
        return np.where(steps > 0, self.start + self.v * steps * self.dt,
                        self.start)


def run_pulling_stack(
    model: ReducedTranslocationModel,
    pulls: Sequence[Tuple[PullingProtocol, np.random.Generator, int]],
    *,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    obs: Optional[Obs] = None,
) -> List[WorkEnsemble]:
    """Pull independently seeded replica groups, of any mix of protocols,
    in one step loop.

    Parameters
    ----------
    pulls:
        ``(protocol, generator, n_samples)`` triples, one per group.
        Generators must be fully formed :class:`numpy.random.Generator`
        instances (derive them with :func:`repro.rng.stream_for`); this
        function draws no randomness outside them.  Pulls with equal
        protocols share a cell of the stack.
    obs:
        Instrumentation handle; the whole stack runs inside one
        ``smd.ensemble`` host-clock span (its wall duration is the
        denominator of the run report's JE samples/sec) carrying
        ``n_cells`` / ``n_groups`` / ``n_samples`` — and ``kappa_pn`` /
        ``velocity`` when the stack is one cell, the only time it has one
        of each — and every group adds to the ``smd.je_samples`` /
        ``smd.sim_ns`` / ``smd.cpu_hours`` counters in input order.
        Observation never touches the RNG.

    Returns
    -------
    One :class:`WorkEnsemble` per pull, in input order.
    """
    if not pulls:
        raise ConfigurationError("need at least one replica group")
    if n_records < 2:
        raise ConfigurationError("n_records must be at least 2")
    cells: Dict[PullingProtocol, _Cell] = {}
    for g, (protocol, rng, m) in enumerate(pulls):
        if not isinstance(rng, np.random.Generator):
            raise ConfigurationError(
                f"group {g}: batched execution needs a numpy Generator "
                f"(derive one with repro.rng.stream_for), got {type(rng).__name__}"
            )
        if m < 1:
            raise ConfigurationError(f"group {g}: n_samples must be at least 1")
        if protocol not in cells:
            cells[protocol] = _Cell(model, protocol, n_records,
                                    force_sample_time)
        cells[protocol].members.append(g)
    exact = force_sample_time is None

    # Longest cell first (stable), each cell's pulls contiguous: a cell
    # that finishes is the tail of the active prefix.
    active = sorted(cells.values(), key=lambda cell: -cell.end)
    slots: Dict[int, Tuple[_Cell, int, int]] = {}   # pull -> its [lo, hi)
    total = 0
    for cell in active:
        cell.lo = total
        for g in cell.members:
            slots[g] = (cell, total, total + int(pulls[g][2]))
            total = slots[g][2]
        cell.hi = total

    obs = as_obs(obs)
    attrs = dict(n_cells=len(cells), n_groups=len(pulls), n_samples=total)
    if len(cells) == 1:
        attrs.update(kappa_pn=active[0].protocol.kappa_pn,
                     velocity=active[0].protocol.velocity)
    with obs.span("smd.ensemble", **attrs):
        z = np.empty(total, dtype=np.float64)
        kappa = np.empty(total, dtype=np.float64)
        drift = np.empty(total, dtype=np.float64)
        for cell in active:
            kappa[cell.lo:cell.hi] = cell.kappa
            drift[cell.lo:cell.hi] = cell.dt / model.friction
            # Every group starts in the static trap at the travel origin
            # with the trap's thermal spread (equilibrium initial ensemble:
            # a precondition of Jarzynski's equality), mirroring
            # ReducedTranslocationModel.equilibrate term by term.
            spread = np.sqrt(model.kT / cell.kappa)
            for g in cell.members:
                _cell, lo, hi = slots[g]
                z[lo:hi] = (cell.start
                            + spread * pulls[g][1].standard_normal(hi - lo))

        works = np.zeros((total, n_records), dtype=np.float64)
        positions = np.zeros((total, n_records), dtype=np.float64)
        w = np.zeros(total, dtype=np.float64)
        # Spring force at each cell's last completed sampling point.
        f_prev = np.empty(total, dtype=np.float64)
        # Scratch of one step, written in place: the exact-work increment,
        # then the displacement (kappa (centre - z) - dU/dz) dt / zeta.
        dz = np.empty(total, dtype=np.float64)
        # Pre-scaled by each cell's sqrt(2 kT dt / zeta).
        noise = np.empty((_BLOCK_STEPS, total), dtype=np.float64)
        centre = np.empty((_BLOCK_STEPS, total), dtype=np.float64)
        if exact:
            # Midpoint-in-lambda exact work for the trap move of each step:
            # w += kappa (lam_new - lam) ((lam + lam_new) / 2 - z).
            gain = np.empty((_BLOCK_STEPS, total), dtype=np.float64)
            mid = np.empty((_BLOCK_STEPS, total), dtype=np.float64)

        def refill(cell: _Cell, t: int, rows: int) -> None:
            """Lay out the cell's next ``rows`` steps from clock ``t``."""
            for g in cell.members:
                _cell, lo, hi = slots[g]
                noise[:rows, lo:hi] = cell.scale * pulls[g][1].standard_normal(
                    (rows, hi - lo))
            steps = np.arange(t + 1, t + 1 + rows) - cell.eq_steps
            lam = cell.trap(steps)
            centre[:rows, cell.lo:cell.hi] = lam[:, None]
            if exact:
                lam_prev = cell.trap(steps - 1)
                gain[:rows, cell.lo:cell.hi] = (
                    cell.kappa * (lam - lam_prev))[:, None]
                mid[:rows, cell.lo:cell.hi] = (
                    0.5 * (lam_prev + lam))[:, None]

        def attend(cell: _Cell, t: int) -> None:
            """The cell's event at clock ``t``: start the pull, or close a
            force-sampling interval and record a station if one is due."""
            lo, hi = cell.lo, cell.hi
            step = t - cell.eq_steps
            if step == 0:
                positions[lo:hi, 0] = z[lo:hi]
                w[lo:hi] = 0.0
                f_prev[lo:hi] = cell.kappa * (cell.start - z[lo:hi])
                return
            lam = cell.start + cell.v * step * cell.dt
            if not exact:
                f_now = cell.kappa * (lam - z[lo:hi])
                # Trapezoid over the sampling interval:
                # W += v dt_s (F0 + F1) / 2.
                w[lo:hi] += (cell.v * (cell.stride * cell.dt) * 0.5
                             * (f_prev[lo:hi] + f_now))
                f_prev[lo:hi] = f_now
            if step == cell.record_at[cell.rec]:
                works[lo:hi, cell.rec] = w[lo:hi]
                positions[lo:hi, cell.rec] = z[lo:hi]
                # Recorded displacements are trap *travel* |lam - origin|,
                # ascending from 0 in either direction.
                cell.displacements[cell.rec] = (
                    (lam - cell.start) * cell.protocol.axis_sign)
                cell.rec += 1

        # Clock ticks at which a cell needs attention: its pull start, then
        # every sampling point (every record station in exact mode, whose
        # work accumulates inside the step).  The last is always its end.
        due: Dict[int, List[_Cell]] = {}
        for cell in active:
            for step in (cell.record_at if exact
                         else range(0, cell.n_steps + 1, cell.stride)):
                due.setdefault(cell.eq_steps + int(step), []).append(cell)
        for cell in due.pop(0, ()):
            attend(cell, 0)

        # Bound for a column when every pull has one replica: one one-row
        # product per replica (module docstring).
        evaluate = model.potential.stacked_derivative(
            total, total == len(pulls))
        shape = np.shape(evaluate(z))
        if shape != (total,):
            raise ConfigurationError(
                f"{type(model.potential).__name__}.stacked_derivative breaks "
                f"the Potential1D leading-axis contract: a ({total},) stack "
                f"came back with shape {shape}")
        t = 0
        n = total
        # The active prefix of every per-replica vector, re-cut only when a
        # cell leaves the stack.
        zn, kn, drift_n, dzn, wn = z, kappa, drift, dz, w
        while active:
            rows = min(_BLOCK_STEPS, active[0].end - t)
            for cell in active:
                refill(cell, t, min(rows, cell.end - t))
            for r in range(rows):
                if exact:
                    np.subtract(mid[r, :n], zn, dzn)
                    np.multiply(gain[r, :n], dzn, dzn)
                    np.add(wn, dzn, wn)
                du = evaluate(zn)
                np.subtract(centre[r, :n], zn, dzn)
                np.multiply(kn, dzn, dzn)
                np.subtract(dzn, du, dzn)
                np.multiply(dzn, drift_n, dzn)
                np.add(zn, dzn, zn)
                np.add(zn, noise[r, :n], zn)
                t += 1
                if t in due:
                    for cell in due.pop(t):
                        attend(cell, t)
                    while active and active[-1].end == t:
                        done = active.pop()
                        assert done.rec == n_records, \
                            "record schedule must consume all stations"
                        n = active[-1].hi if active else 0
                        zn, kn, drift_n, dzn, wn = (
                            z[:n], kappa[:n], drift[:n], dz[:n], w[:n])

    ensembles = []
    for g, (protocol, _rng, _m) in enumerate(pulls):
        cell, lo, hi = slots[g]
        per_replica_ns = protocol.duration_ns + protocol.equilibration_ns
        ensembles.append(WorkEnsemble(
            protocol=protocol,
            displacements=cell.displacements.copy(),
            works=works[lo:hi].copy(),
            positions=positions[lo:hi].copy(),
            temperature=model.temperature,
            cpu_hours=_count_work(obs, hi - lo, (hi - lo) * per_replica_ns),
        ))
    return ensembles
