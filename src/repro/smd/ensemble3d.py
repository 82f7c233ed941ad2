"""SMD pulling ensembles on the full 3-D engine.

The reduced 1-D model carries the Fig. 4 statistics; this runner provides
the consistency check behind it: the same constant-velocity protocol
executed as ``n_samples`` independent 3-D CG simulations (fresh chain,
fresh thermal noise each), packaged into the identical
:class:`~repro.smd.work.WorkEnsemble` format so every estimator and error
tool applies unchanged.

The replicas run stacked: one :class:`~repro.md.engine.Simulation` of a
:class:`~repro.md.batch.ReplicaBatch`, one trap anchored per replica, one
recorder — the engine, force terms, trap and recorder a solo pull uses,
over a leading replica axis.  ``kernel="reference"`` runs them as solo
simulations one after another instead, the oracle the stack must equal
bit for bit.

These runs are the expensive path (a full force stack per step); they are
sized for validation (few samples, short windows), not for production
statistics — exactly the paper's relationship between its interactive 3-D
runs and the batch SMD-JE ensembles.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..md.batch import stack_simulations
from ..md.engine import Simulation
from ..md.kernels import validate_kernel
from ..obs import Obs, as_obs
from ..pore.assembly import (
    TranslocationSystem,
    build_translocation_simulation,
)
from ..rng import SeedLike, as_generator, stream_for
from .ensemble import PAPER_CPU_HOURS_PER_NS
from .protocol import PullingProtocol
from .pulling import SMDPullingForce, SMDWorkRecorder
from .work import WorkEnsemble

__all__ = ["run_pulling_ensemble_3d"]


def run_pulling_ensemble_3d(
    protocol: PullingProtocol,
    n_samples: int,
    n_bases: int = 8,
    n_records: int = 21,
    axis=(0.0, 0.0, -1.0),
    start_com_z: float = 20.0,
    seed: SeedLike = None,
    obs: Optional[Obs] = None,
    kernel: str = "vectorized",
) -> WorkEnsemble:
    """Run ``n_samples`` independent 3-D pulls of the CG system.

    The protocol's ``start_z`` is interpreted in the *pull coordinate*
    (``axis . COM``); each replica is built with its DNA COM near
    ``start_com_z`` on the pore axis, equilibrated briefly, then pulled.

    Records are aligned on the trap-displacement grid like the reduced
    runner; works/positions are per-replica at each station.  ``obs`` is
    the instrumentation handle (read-only: spans and counters only, so
    instrumented runs stay bit-identical).

    ``kernel``: by default all replicas are stacked into one
    :class:`~repro.md.engine.Simulation` of a
    :class:`~repro.md.batch.ReplicaBatch` (R systems per force /
    integrator call); ``"reference"`` steps one solo simulation per
    replica, the oracle the stack is verified against.  Both run the same
    engine, force terms and trap — the stack is a leading array axis — and
    are bit-identical.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be at least 1")
    if n_records < 2:
        raise ConfigurationError("n_records must be at least 2")
    validate_kernel(kernel)
    obs = as_obs(obs)
    master = int(as_generator(seed).integers(0, 2**31))
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    pull = _pull_reference if kernel == "reference" else _pull_stacked

    works = np.zeros((n_samples, n_records), dtype=np.float64)
    positions = np.zeros((n_samples, n_records), dtype=np.float64)
    grid = np.linspace(0.0, protocol.distance, n_records)
    total_ns = 0.0
    with obs.span("smd.ensemble3d", n_samples=n_samples, n_bases=n_bases):
        # Every replica is built from its own stream, whatever steps it.
        builds = [
            build_translocation_simulation(
                n_bases=n_bases,
                start_z=start_com_z - (n_bases - 1) * 6.5 / 2.0,
                seed=stream_for(master, "smd3d", rep),
            )
            for rep in range(n_samples)
        ]
        for rep, series in enumerate(pull(builds, protocol, a)):
            # Interpolate the recorded series onto the common displacement
            # grid.
            disp = series["displacements"]
            order = np.argsort(disp)
            works[rep] = np.interp(grid, disp[order], series["works"][order])
            positions[rep] = np.interp(grid, disp[order],
                                       series["coordinates"][order])
            works[rep] -= works[rep][0]
            total_ns += protocol.duration_ns + protocol.equilibration_ns

    if obs.enabled:
        obs.metrics.inc("smd.je_samples_3d", n_samples)
        obs.metrics.inc("smd.sim_ns", total_ns)
        obs.metrics.inc("smd.cpu_hours", total_ns * PAPER_CPU_HOURS_PER_NS)
    return WorkEnsemble(
        protocol=protocol,
        displacements=grid,
        works=works,
        positions=positions,
        temperature=300.0,
        cpu_hours=total_ns * PAPER_CPU_HOURS_PER_NS,
    )


def _anchored(protocol: PullingProtocol, positions: np.ndarray,
              dna: np.ndarray, masses: np.ndarray,
              a: np.ndarray) -> PullingProtocol:
    """``protocol`` with its trap anchored at the replica's own current pull
    coordinate, so every pull starts at zero stretch (equilibrium initial
    condition)."""
    return protocol.with_start(
        float((masses[dna] / masses[dna].sum()) @ positions[dna] @ a))


def _pull_reference(builds: Sequence[TranslocationSystem],
                    protocol: PullingProtocol,
                    a: np.ndarray) -> Iterator[Dict[str, np.ndarray]]:
    """The oracle: one solo simulation per replica, one after another."""
    for ts in builds:
        sim = ts.simulation
        # Equilibrate before attaching the trap.
        if protocol.equilibration_ns > 0:
            sim.run_until(protocol.equilibration_ns)
        masses = sim.system.masses
        proto = _anchored(protocol, sim.system.positions, ts.dna_indices,
                          masses, a)
        yield _pull(sim, SMDPullingForce(proto, ts.dna_indices, masses, axis=a),
                    protocol)


def _pull_stacked(builds: Sequence[TranslocationSystem],
                  protocol: PullingProtocol,
                  a: np.ndarray) -> Iterator[Dict[str, np.ndarray]]:
    """Production: the R systems stacked into one simulation
    (:func:`~repro.md.batch.stack_simulations`), whose per-replica
    generators keep driving their own replica's thermostat noise and whose
    trap is anchored per replica."""
    sim = stack_simulations([ts.simulation for ts in builds])
    if protocol.equilibration_ns > 0:
        sim.run_until(protocol.equilibration_ns)
    dna = builds[0].dna_indices
    masses = builds[0].simulation.system.masses
    protos = [_anchored(protocol, positions, dna, masses, a)
              for positions in sim.system.positions]
    arrays = _pull(sim, SMDPullingForce(protos, dna, masses, axis=a), protocol)
    for rep in range(len(builds)):
        yield {name: series[rep] for name, series in arrays.items()
               if name != "times"}


def _pull(sim: Simulation, smd: SMDPullingForce,
          protocol: PullingProtocol) -> Dict[str, np.ndarray]:
    """Attach the trap to an equilibrated simulation — solo or stacked —
    pull, and return the recorded series."""
    sim.forces.append(smd)
    sim.invalidate_caches()
    n_steps = int(np.ceil(protocol.duration_ns / sim.integrator.dt))
    # About 400 recorded points per pull.
    recorder = SMDWorkRecorder(smd, record_stride=max(n_steps // 400, 1))
    sim.add_reporter(recorder)
    sim.step(n_steps)
    return recorder.arrays()
