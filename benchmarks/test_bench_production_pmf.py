"""PROD — the headline science: the PMF along the entire pore axis.

Section II: "By computing the PMF for the translocating biomolecule along
the vertical axis of the protein pore, significant insight into the
translocation process can be obtained."  After Fig. 4 fixes
(kappa, v) = (100 pN/A, 12.5 A/ns), the production set sweeps the axis in
10 A sub-trajectory windows and stitches the result — this benchmark runs
that production and checks it resolves the pore's features.
"""

from repro.analysis import Curve, FigureData, render_figure
from repro.workflow import run_full_axis_production

from conftest import once


def test_full_axis_production(benchmark, emit):
    res = once(benchmark, lambda: run_full_axis_production(
        kappa_pn=100.0, velocity=12.5, axis_range=(-30.0, 30.0),
        window=10.0, n_samples=24, seed=2005))

    fig = FigureData("PMF along the pore axis (production, stitched windows)",
                     "z along pore axis (A)", "Phi (kcal/mol)")
    fig.add(Curve("SMD-JE production", res.z, res.pmf))
    fig.add(Curve("exact", res.z, res.reference))
    drop = abs(res.reference[-1] - res.reference[0])
    summary = [
        "",
        f"windows: {res.n_windows} x 10 A at (kappa=100 pN/A, v=12.5 A/ns)",
        f"ensemble: {res.ensembles[0].n_samples} pulls per window",
        f"total cost (paper scale): {res.total_cpu_hours:.0f} CPU-hours",
        f"PMF drop over 60 A: {res.pmf[-1]:.0f} kcal/mol "
        f"(exact {res.reference[-1]:.0f})",
        f"rms error: {res.rms_error:.1f} kcal/mol "
        f"({100 * res.rms_error / drop:.1f}% of the drop)",
        f"constriction barrier (de-tilted): {res.barrier_height():.1f} kcal/mol",
    ]
    emit("production_pmf", render_figure(fig, height=18) + "\n"
         + "\n".join(summary), csv=fig.to_csv())

    assert res.rms_error < 0.05 * drop
    assert res.barrier_height() > 5.0  # the constriction is resolved
    # Production cost sits inside the paper's 75k CPU-h scale per campaign.
    assert 50_000 < res.total_cpu_hours < 500_000
