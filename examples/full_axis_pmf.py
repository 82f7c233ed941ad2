#!/usr/bin/env python
"""The production run: the PMF along the entire pore axis.

This is the calculation SPICE exists for.  With the parameters the Fig. 4
study selected (kappa = 100 pN/A, v = 12.5 A/ns), the axis is swept in
consecutive 10 A sub-trajectory windows — each an independent, freshly
equilibrated pulling ensemble, i.e. a batch of grid jobs — and the
per-window PMFs are stitched into the full profile.

The effective potential is derived from the 3-D pore's own on-axis
landscape, so the exact reference is available for the error report.
"""

from repro.analysis import Curve, FigureData, render_figure
from repro.workflow import run_full_axis_production


def main() -> None:
    print("running 6 windows x 24 pulls at (kappa=100 pN/A, v=12.5 A/ns)...")
    res = run_full_axis_production(axis_range=(-30.0, 30.0), n_samples=24,
                                   seed=2005)

    fig = FigureData("translocation PMF along the pore axis",
                     "z along pore axis (A)", "Phi (kcal/mol)")
    fig.add(Curve("SMD-JE production", res.z, res.pmf))
    fig.add(Curve("exact reference", res.z, res.reference))
    print()
    print(render_figure(fig, height=18))

    drop = abs(res.reference[-1] - res.reference[0])
    print(f"\nPMF drop over 60 A: {res.pmf[-1]:.0f} kcal/mol")
    print(f"rms error: {res.rms_error:.1f} kcal/mol "
          f"({100 * res.rms_error / drop:.1f}% of the drop)")
    print(f"constriction barrier (de-tilted): "
          f"{res.barrier_height():.1f} kcal/mol")
    print(f"cost at paper scale: {res.total_cpu_hours:.0f} CPU-hours "
          f"across {res.n_windows * res.ensembles[0].n_samples} grid jobs")


if __name__ == "__main__":
    main()
