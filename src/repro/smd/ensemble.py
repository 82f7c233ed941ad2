"""Pulling-ensemble runner on the reduced 1-D model, and its scalar oracle.

This is the front door of the Fig. 4 reproduction: every replica of a
(kappa, v) cell is integrated simultaneously as one NumPy vector by the
engine in :mod:`repro.smd.batched`; :func:`run_pulling_ensemble` hands it a
single seeded group, while ``kernel="reference"`` runs the per-replica
scalar loop the engine is tested against.  Store memoization is not here:
the reduced model's one store path is the task plan
(:mod:`repro.smd.plan`).

Work accounting mirrors production SMD practice (NAMD writes the spring
force every ``SMDOutputFreq`` steps and the work is integrated offline from
those samples): the spring force is *sampled* at a fixed physical stride
``force_sample_time`` and the work accumulated by the trapezoid rule over
the samples.  The sampled instantaneous force carries the trap's thermal
fluctuation, whose variance is ``kT * kappa`` — this is precisely why the
paper finds the PMF "too noisy" at kappa = 1000 pN/A while kappa = 10 has
the smallest statistical error.  Passing ``force_sample_time=None`` switches
to exact per-step midpoint accumulation (useful for estimator validation,
where sampling noise would obscure the mathematics).

Cost accounting: each replica of duration T_ns is assigned the CPU-hours the
*paper's* full-size simulation would need for the same physical time
(3000 CPU-h per ns, Section I), so downstream error normalization and grid
scheduling work at paper scale.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..md.kernels import validate_kernel
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_generator
from .batched import (
    DEFAULT_FORCE_SAMPLE_TIME,
    PAPER_CPU_HOURS_PER_NS,
    _count_work,
    _integration_grid,
    _record_schedule,
    run_pulling_stack,
)
from .protocol import PullingProtocol
from .work import WorkEnsemble

__all__ = [
    "run_pulling_ensemble",
    "PAPER_CPU_HOURS_PER_NS",
]


def run_pulling_ensemble(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    n_samples: int,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    seed: SeedLike = None,
    obs: Optional[Obs] = None,
    kernel: str = "vectorized",
) -> WorkEnsemble:
    """Run ``n_samples`` constant-velocity pulls and collect work curves.

    Parameters
    ----------
    model:
        The reduced translocation model (defines potential, friction, T).
    protocol:
        Pulling parameters (kappa, v, distance, start, equilibration).
    n_samples:
        Ensemble size (replicas integrated simultaneously).
    n_records:
        Number of displacement stations (including 0) at which work and
        position are recorded.
    force_sample_time:
        Physical stride (ns) of spring-force output used for trapezoid work
        integration, or ``None`` for exact per-step midpoint accumulation
        (the estimator-validation reference; no driver above sets it).
    obs:
        Optional instrumentation handle: the whole ensemble runs inside an
        ``smd.ensemble`` host-clock span (wall seconds -> JE samples/sec),
        and ``smd.je_samples`` / ``smd.sim_ns`` / ``smd.cpu_hours``
        counters accumulate across ensembles.  Observation never touches
        the RNG, so instrumented runs are bit-identical to bare ones.
    kernel:
        ``"reference"`` runs the per-replica scalar Python loop, the oracle
        the engine is verified against; the default is one single-group
        call of :func:`repro.smd.batched.run_pulling_stack`.  The two are
        bit-identical; the kernel is an execution layout, not part of the
        result's identity, so store fingerprints do not include it.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be at least 1")
    if n_records < 2:
        raise ConfigurationError("n_records must be at least 2")
    validate_kernel(kernel)
    rng = as_generator(seed)
    if kernel != "reference":
        return run_pulling_stack(
            model, [(protocol, rng, n_samples)], n_records=n_records,
            force_sample_time=force_sample_time, obs=obs)[0]

    obs = as_obs(obs)
    with obs.span("smd.ensemble", n_cells=1, n_groups=1, n_samples=n_samples,
                  kappa_pn=protocol.kappa_pn, velocity=protocol.velocity):
        works, positions, displacements = _run_pulling_reference(
            model, protocol, n_samples, rng, n_records, force_sample_time)
    total_sim_ns = n_samples * (protocol.duration_ns
                                + protocol.equilibration_ns)
    return WorkEnsemble(
        protocol=protocol,
        displacements=displacements,
        works=works,
        positions=positions,
        temperature=model.temperature,
        cpu_hours=_count_work(obs, n_samples, total_sim_ns),
    )


def _run_pulling_reference(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    n_samples: int,
    rng: np.random.Generator,
    n_records: int,
    force_sample_time: Optional[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-replica scalar-loop oracle for the pulling ensemble.

    Draws each step's noise as one vector (the same stream consumption as
    the vectorized runner) and evaluates the potential derivative on the
    replica vector (NumPy's array transcendentals use SIMD code paths that
    can differ from the scalar libm path by one ULP, so a scalar-by-scalar
    derivative would *not* reproduce the vectorized runner bitwise — array
    slices of the same call do, which is what the batched kernel relies
    on).  Every other update is scalar float64 arithmetic mirroring the
    vectorized expressions term by term, so the result is bit-identical —
    the oracle the batched and vectorized kernels are tested against.
    """
    kappa, dt_eff, n_steps, stride, n_strides = _integration_grid(
        model, protocol, n_records, force_sample_time
    )
    exact = force_sample_time is None
    start = protocol.origin_z
    v = protocol.signed_velocity
    sgn = protocol.axis_sign
    kT = model.kT
    friction = model.friction
    drift = dt_eff / friction
    noise_scale = math.sqrt(2.0 * kT * dt_eff / friction)

    def deriv(zs: list) -> np.ndarray:
        z_arr = np.asarray(zs, dtype=np.float64)
        return np.asarray(model.potential.derivative(z_arr), dtype=np.float64)

    # Equilibrate (mirrors ReducedTranslocationModel.equilibrate).
    spread = math.sqrt(kT / kappa)
    init = rng.standard_normal(n_samples)
    z = [start + spread * float(init[i]) for i in range(n_samples)]
    eq_ns = protocol.equilibration_ns
    eq_steps = int(np.ceil(eq_ns / dt_eff)) if eq_ns > 0 else 0
    for _ in range(eq_steps):
        xi = rng.standard_normal(n_samples)
        d = deriv(z)
        for i in range(n_samples):
            f = -float(d[i]) + kappa * (start - z[i])
            z_new = z[i] + f * drift
            z[i] = z_new + noise_scale * float(xi[i])

    record_at = _record_schedule(n_strides, n_records) * stride
    works = np.zeros((n_samples, n_records), dtype=np.float64)
    positions = np.zeros((n_samples, n_records), dtype=np.float64)
    displacements = np.zeros(n_records, dtype=np.float64)
    positions[:, 0] = z
    w = [0.0] * n_samples
    f_prev = [kappa * (start - z[i]) for i in range(n_samples)]
    lam = start
    rec = 1
    for step in range(1, n_steps + 1):
        lam_new = start + v * step * dt_eff
        if exact:
            a = kappa * (lam_new - lam)
            mid = 0.5 * (lam + lam_new)
            for i in range(n_samples):
                w[i] += a * (mid - z[i])
        lam = lam_new
        xi = rng.standard_normal(n_samples)
        d = deriv(z)
        for i in range(n_samples):
            f = -float(d[i]) + kappa * (lam - z[i])
            z_new = z[i] + f * drift
            z[i] = z_new + noise_scale * float(xi[i])
        if not exact and step % stride == 0:
            c = v * (stride * dt_eff) * 0.5
            for i in range(n_samples):
                f_now = kappa * (lam - z[i])
                w[i] += c * (f_prev[i] + f_now)
                f_prev[i] = f_now
        if step == record_at[rec]:
            works[:, rec] = w
            positions[:, rec] = z
            displacements[rec] = (lam - start) * sgn
            rec += 1
    assert rec == n_records, "record schedule must consume all stations"
    return works, positions, displacements
