"""Figure/table emitters: one function per paper item.

Each function converts a result object from the core/workflow layers into
the labelled series or table the corresponding paper figure shows.  The
benchmarks call these; the EXPERIMENTS.md numbers come straight from their
outputs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.optimizer import ParameterStudyResult
from ..errors import AnalysisError
from ..grid.costmodel import CostModel
from ..grid.federation import CampaignReport
from ..imd.metrics import InteractivityReport
from .series import Curve, FigureData, Table

__all__ = [
    "fig1_structure_table",
    "fig4_panel_kappa",
    "fig4_panel_velocity",
    "fig4_error_table",
    "fig5_campaign_table",
    "cost_model_table",
    "qos_table",
    "reachability_table",
]


def fig1_structure_table(summary: Dict[str, float]) -> Table:
    """Fig. 1: structural facts of the model system (geometry + symmetry)."""
    t = Table(
        "Fig. 1 - alpha-hemolysin model structure",
        ["quantity", "value", "unit"],
    )
    t.add_row("pore length", summary["length"], "A")
    t.add_row("vestibule radius", summary["vestibule_radius"], "A")
    t.add_row("beta-barrel radius", summary["barrel_radius"], "A")
    t.add_row("constriction radius", summary["constriction_radius"], "A")
    t.add_row("constriction position", summary["constriction_z"], "A")
    t.add_row("symmetry order", summary["symmetry_order"], "-fold")
    return t


def fig4_panel_kappa(result: ParameterStudyResult, kappa: float) -> FigureData:
    """Fig. 4a/b/c: PMF vs displacement at fixed kappa, one curve per v."""
    fig = FigureData(
        title=f"Fig. 4 panel: kappa = {kappa:g} pN/A",
        xlabel="displacement of COM (A)",
        ylabel="Phi (kcal/mol)",
    )
    estimates = result.estimates_at_kappa(kappa)
    if not estimates:
        raise AnalysisError(f"no estimates at kappa={kappa}")
    for est in estimates:
        fig.add(Curve(f"v = {est.velocity:g}", est.displacements, est.values))
    fig.add(Curve("exact", result.reference_displacements, result.reference_pmf))
    return fig


def fig4_panel_velocity(result: ParameterStudyResult, velocity: float) -> FigureData:
    """Fig. 4d: PMF vs displacement at fixed v, one curve per kappa."""
    fig = FigureData(
        title=f"Fig. 4 panel: v = {velocity:g} A/ns",
        xlabel="displacement of COM (A)",
        ylabel="Phi (kcal/mol)",
    )
    estimates = result.estimates_at_velocity(velocity)
    if not estimates:
        raise AnalysisError(f"no estimates at v={velocity}")
    for est in estimates:
        fig.add(Curve(f"kappa = {est.kappa_pn:g}", est.displacements, est.values))
    fig.add(Curve("exact", result.reference_displacements, result.reference_pmf))
    return fig


def fig4_error_table(result: ParameterStudyResult) -> Table:
    """The sigma_stat / sigma_sys analysis behind Fig. 4's conclusions."""
    t = Table(
        "Fig. 4 - error analysis (sigma_stat cost-normalized to slowest v)",
        ["kappa_pn", "v", "sigma_stat", "sigma_sys", "sigma_total", "n_samples"],
    )
    for b in result.budget_table():
        t.add_row(b.kappa_pn, b.velocity, b.sigma_stat, b.sigma_sys,
                  b.sigma_total, b.n_samples)
    return t


def fig5_campaign_table(reports: Dict[str, CampaignReport]) -> Table:
    """Fig. 5 / Section III: the batch campaign across configurations.

    ``reports`` maps a configuration label (e.g. "federation", "NCSA only")
    to its campaign report.
    """
    t = Table(
        "Fig. 5 - batch campaign: federation vs single resources",
        ["configuration", "jobs_done", "unplaced", "makespan_days",
         "cpu_hours", "mean_wait_h", "requeues"],
    )
    for label, rep in reports.items():
        t.add_row(
            label,
            len(rep.completed),
            len(rep.unplaced),
            rep.makespan_hours / 24.0,
            rep.total_cpu_hours,
            rep.mean_wait_hours,
            rep.requeues,
        )
    return t


def cost_model_table(model: CostModel) -> Table:
    """Section I/II back-of-the-envelope numbers."""
    t = Table(
        "Cost model - paper Section I/II figures",
        ["quantity", "value", "unit"],
    )
    t.add_row("CPU-hours per ns (300k atoms)", model.cpu_hours_per_ns(), "CPU-h")
    t.add_row("vanilla 10 us total", model.vanilla_total_cpu_hours(), "CPU-h")
    t.add_row("SMD-JE total (50x)",
              model.smdje_total_cpu_hours(model.smdje_reduction_low), "CPU-h")
    t.add_row("SMD-JE total (100x)",
              model.smdje_total_cpu_hours(model.smdje_reduction_high), "CPU-h")
    t.add_row("Moore's-law wait for routine",
              model.moores_law_years_until_routine(), "years")
    return t


def qos_table(reports: Dict[str, InteractivityReport]) -> Table:
    """Section II-III: interactivity vs network class; wasted CPU-hours
    are those of a 256-processor interactive run."""
    t = Table(
        "Interactive MD vs network QoS",
        ["network", "slowdown", "stall_fraction", "fps",
         "p95_roundtrip_ms", "wasted_cpu_h"],
    )
    for label, rep in reports.items():
        t.add_row(
            label,
            rep.slowdown,
            rep.stall_fraction,
            rep.fps,
            rep.p95_round_trip * 1000.0,
            rep.wasted_cpu_hours(),
        )
    return t


def reachability_table(matrix: Dict[Tuple[str, str], bool]) -> Table:
    """Section V-C1: which host pairs can actually connect."""
    t = Table(
        "Hidden-IP reachability",
        ["from", "to", "reachable"],
    )
    for (a, b), ok in sorted(matrix.items()):
        t.add_row(a, b, "yes" if ok else "NO")
    return t
