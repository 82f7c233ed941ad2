"""MD hot-path kernel benchmark: step rate and neighbor-list rebuild cost.

Times a realistic coarse-grained workload — bead-spring chains with
harmonic bonds and angles, Lennard-Jones excluded volume and Debye-Hueckel
electrostatics, integrated with Langevin BAOAB — once per kernel
(``"reference"`` per-pair Python loops, ``"vectorized"`` batched NumPy)
and reports steps/second plus the forced neighbor-list rebuild time.

The system is deterministic (built from a seed via :mod:`repro.rng`) so
successive runs on the same machine time the same trajectory.  The
acceptance floor for this repo is a >= 3x vectorized-over-reference step
rate at the full benchmark size; measured speedups are typically an order
of magnitude (see PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..md import (
    DebyeHuckelForce,
    HarmonicAngleForce,
    HarmonicBondForce,
    LangevinBAOAB,
    LennardJonesForce,
    NeighborList,
    ParticleSystem,
    Simulation,
    TopologyBuilder,
)
from ..obs import Obs, as_obs
from ..rng import SeedLike, as_generator, as_seed_int
from .harness import SCHEMA_KERNELS, metrics_snapshot, time_call

__all__ = ["build_benchmark_system", "run_kernel_benchmark"]

#: Nonbonded cutoff (A) for the benchmark workload.
CUTOFF = 8.0

#: Bead number density (1/A^3) — tuned to ~25 neighbors per bead within
#: cutoff+skin, a realistic CG crowding level.
DENSITY = 0.01

CHAIN_LENGTH = 12


def build_benchmark_system(n_particles: int, seed: SeedLike = None):
    """Deterministic randomized CG system for benchmarking.

    Beads are placed on a jittered cubic lattice (no catastrophic overlaps,
    so the LJ forces are finite from step one) inside a box sized for
    :data:`DENSITY`, threaded into chains of :data:`CHAIN_LENGTH` beads
    with harmonic bonds and angles, and given alternating charges.

    Returns ``(system, forces)`` ready for :class:`~repro.md.Simulation`.
    """
    rng = as_generator(seed)
    side = (n_particles / DENSITY) ** (1.0 / 3.0)
    cells_per_side = int(np.ceil(n_particles ** (1.0 / 3.0)))
    spacing = side / cells_per_side
    grid = np.arange(cells_per_side) * spacing
    lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    lattice = lattice.reshape(-1, 3)[:n_particles]
    positions = lattice + rng.uniform(-0.2, 0.2, size=(n_particles, 3)) * spacing

    types = np.arange(n_particles) % 3
    charges = np.where(np.arange(n_particles) % 2 == 0, -1.0, 1.0)
    masses = np.full(n_particles, 300.0)

    builder = TopologyBuilder(n_particles)
    for start in range(0, n_particles - CHAIN_LENGTH + 1, CHAIN_LENGTH):
        chain = list(range(start, start + CHAIN_LENGTH))
        builder.add_chain(chain, k=10.0, r0=spacing)
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            builder.add_angle(a, b, c, k_theta=5.0, theta0=np.pi)
    topology = builder.build()

    system = ParticleSystem(
        positions=positions,
        masses=masses,
        velocities=np.zeros_like(positions),
        charges=charges,
        types=types,
    )
    return system, topology


def _make_forces(system: ParticleSystem, topology, kernel: str):
    epsilon = np.array([0.3, 0.5, 0.8])
    sigma = np.array([4.0, 4.5, 5.0])
    return [
        HarmonicBondForce(topology, kernel=kernel),
        HarmonicAngleForce(topology, kernel=kernel),
        LennardJonesForce(system.types, epsilon, sigma, cutoff=CUTOFF,
                          kernel=kernel),
        DebyeHuckelForce(system.charges, cutoff=CUTOFF, kernel=kernel),
    ]


def _make_simulation(n_particles: int, seed: int, kernel: str) -> Simulation:
    system, topology = build_benchmark_system(n_particles, seed=seed)
    forces = _make_forces(system, topology, kernel)
    integrator = LangevinBAOAB(dt=2.0e-6, friction=10.0, temperature=295.0,
                               seed=seed)
    return Simulation(system, forces, integrator)


def run_kernel_benchmark(
    quick: bool = False,
    seed: SeedLike = 2005,
    obs: Optional[Obs] = None,
) -> dict:
    """Benchmark step rate and neighbor rebuilds for each kernel.

    Returns a BENCH document (schema :data:`~repro.perf.harness.SCHEMA_KERNELS`).
    ``quick`` shrinks the system and step counts to CI smoke scale.
    """
    obs = as_obs(obs)
    seed_int = as_seed_int(seed)
    n_particles = 160 if quick else 600
    n_steps = 10 if quick else 40
    repeats = 2 if quick else 3

    step_rate: dict = {}
    rebuild: dict = {}
    candidate_pairs = 0
    with obs.span("perf.bench.kernels", quick=quick,
                  n_particles=n_particles, n_steps=n_steps):
        # Single-system kernels only: replica stacking is a layout, not a
        # per-step code path, and is measured by the ladder's cg3d_pull.
        for kernel in ("reference", "vectorized"):
            sim = _make_simulation(n_particles, seed_int, kernel)
            with obs.span("perf.step_rate", kernel=kernel):
                timing = time_call(lambda: sim.step(n_steps), repeats=repeats)
            rate = n_steps / timing.best_s
            step_rate[kernel] = {
                "steps_per_s": rate,
                "n_steps": n_steps,
                **timing.as_dict(),
            }
            if obs.enabled:
                obs.metrics.set_gauge(f"perf.step_rate.{kernel}", rate)

            nl = NeighborList(cutoff=CUTOFF, kernel=kernel)
            positions = sim.system.positions

            def rebuild_once(nl=nl, positions=positions):
                nl.invalidate()
                nl.pairs(positions)

            with obs.span("perf.neighbor_rebuild", kernel=kernel):
                timing = time_call(rebuild_once, repeats=repeats)
            rebuild[kernel] = {
                "build_s": timing.best_s,
                **timing.as_dict(),
            }
            candidate_pairs = nl.last_pair_count
            if obs.enabled:
                obs.metrics.set_gauge(f"perf.nl_build_s.{kernel}",
                                      timing.best_s)

    step_rate["speedup"] = (step_rate["vectorized"]["steps_per_s"]
                            / step_rate["reference"]["steps_per_s"])
    rebuild["speedup"] = (rebuild["reference"]["build_s"]
                          / rebuild["vectorized"]["build_s"])
    rebuild["candidate_pairs"] = candidate_pairs
    if obs.enabled:
        obs.metrics.set_gauge("perf.step_rate.speedup", step_rate["speedup"])

    return {
        "schema": SCHEMA_KERNELS,
        "quick": quick,
        "seed": seed_int,
        "system": {
            "n_particles": n_particles,
            "cutoff_A": CUTOFF,
            "density_per_A3": DENSITY,
            "chain_length": CHAIN_LENGTH,
            "forces": ["HarmonicBond", "HarmonicAngle", "LennardJones",
                       "DebyeHuckel"],
            "integrator": "LangevinBAOAB",
        },
        "step_rate": step_rate,
        "neighbor_rebuild": rebuild,
        "metrics": metrics_snapshot(obs),
    }
