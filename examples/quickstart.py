#!/usr/bin/env python
"""Quickstart: compute a free-energy profile with SMD-JE in ~30 lines.

Runs an ensemble of steered pulls on the reduced translocation model at the
paper's optimal parameters (kappa = 100 pN/A, v = 12.5 A/ns), applies
Jarzynski's equality through the unified ``estimate_free_energy`` front
door, and compares against the exactly known PMF.
"""

import numpy as np

from repro.analysis import Curve, FigureData, render_figure
from repro.core import estimate_free_energy, estimate_pmf
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.smd import PullingProtocol, run_pulling_ensemble


def main() -> None:
    # 1. The system: overdamped translocation coordinate on the pore PMF.
    model = ReducedTranslocationModel(default_reduced_potential())

    # 2. The experiment: constant-velocity pulling through a harmonic trap
    #    over a 10 A sub-trajectory window centred on the constriction.
    #    All replicas of the ensemble are integrated as one NumPy vector.
    protocol = PullingProtocol(kappa_pn=100.0, velocity=12.5,
                               distance=10.0, start_z=-5.0)
    ensemble = run_pulling_ensemble(model, protocol, n_samples=48, seed=2005)
    print(f"ran {ensemble.n_samples} pulls of {protocol.duration_ns:.2f} ns "
          f"(cost model: {ensemble.cpu_hours:.0f} CPU-hours at paper scale)")
    print(f"work spread: {ensemble.dissipated_width():.2f} kT")

    # 3. Jarzynski: non-equilibrium work -> equilibrium free energy.  Every
    #    estimator is a registry name behind the estimate_free_energy front
    #    door; estimate_pmf wraps the same call with the pull geometry.
    values = estimate_free_energy(ensemble.works, ensemble.temperature,
                                  method="exponential")
    pmf = estimate_pmf(ensemble, estimator="exponential")
    assert np.array_equal(pmf.values, values - values[0])
    reference = model.reference_pmf(protocol.start_z + pmf.displacements)

    fig = FigureData("SMD-JE potential of mean force",
                     "displacement of COM (A)", "Phi (kcal/mol)")
    fig.add(Curve("SMD-JE estimate", pmf.displacements, pmf.values))
    fig.add(Curve("exact", pmf.displacements, reference))
    print()
    print(render_figure(fig))

    err = float(np.abs(pmf.values - reference).max())
    print(f"\nmax deviation from the exact PMF: {err:.2f} kcal/mol")


if __name__ == "__main__":
    main()
