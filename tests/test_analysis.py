"""Tests for series containers, ASCII plots and figure emitters."""

import numpy as np
import pytest

from repro.analysis import (
    Curve,
    FigureData,
    Table,
    cost_model_table,
    fig1_structure_table,
    fig4_error_table,
    fig4_panel_kappa,
    fig4_panel_velocity,
    fig5_campaign_table,
    qos_table,
    reachability_table,
    render_figure,
)
from repro.errors import AnalysisError
from repro.grid import PAPER_COST_MODEL
from repro.imd import InteractivityReport
from repro.pore import HemolysinPore


class TestCurve:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            Curve("x", np.zeros(3), np.zeros(4))
        with pytest.raises(AnalysisError):
            Curve("x", np.zeros(0), np.zeros(0))


class TestFigureData:
    def make(self):
        fig = FigureData("t", "x", "y")
        fig.add(Curve("a", np.linspace(0, 1, 5), np.linspace(0, 2, 5)))
        fig.add(Curve("b", np.linspace(0, 1, 5), np.linspace(2, 0, 5)))
        return fig

    def test_lookup(self):
        fig = self.make()
        assert fig.curve("a").y[-1] == 2.0
        with pytest.raises(AnalysisError):
            fig.curve("zzz")

    def test_csv_long_format(self):
        csv = self.make().to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "series,x,y"
        assert len(lines) == 11


class TestTable:
    def test_formatting_aligned(self):
        t = Table("demo", ["name", "value"])
        t.add_row("alpha", 1.5)
        t.add_row("b", 22.25)
        text = t.formatted()
        lines = text.split("\n")
        assert lines[0] == "demo"
        assert "alpha" in text and "22.250" in text

    def test_row_arity_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(AnalysisError):
            t.add_row(1)

    def test_column_access(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2).add_row(3, 4)
        assert t.column("b") == [2, 4]
        with pytest.raises(AnalysisError):
            t.column("c")

    def test_csv(self):
        t = Table("demo", ["a"])
        t.add_row(1.25)
        assert t.to_csv() == "a\n1.25\n"


class TestRenderFigure:
    def test_renders_all_curves(self):
        fig = FigureData("demo plot", "x", "y")
        fig.add(Curve("up", np.linspace(0, 1, 20), np.linspace(0, 1, 20)))
        fig.add(Curve("down", np.linspace(0, 1, 20), np.linspace(1, 0, 20)))
        text = render_figure(fig, height=10)
        assert "demo plot" in text
        assert "o up" in text and "x down" in text

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            render_figure(FigureData("e", "x", "y"))

    def test_canvas_size_checked(self):
        fig = FigureData("t", "x", "y")
        fig.add(Curve("a", np.arange(3.0), np.arange(3.0)))
        with pytest.raises(AnalysisError):
            render_figure(fig, height=2)


class TestFigureEmitters:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.core import run_parameter_study
        from repro.pore import ReducedTranslocationModel, default_reduced_potential
        from repro.smd import parameter_grid

        model = ReducedTranslocationModel(default_reduced_potential())
        protos = parameter_grid(kappas=[10.0, 100.0], velocities=[25.0, 100.0],
                                distance=5.0, start_z=-2.5)
        return run_parameter_study(model, protocols=protos, n_samples=8,
                                   n_bootstrap=20, seed=1)

    def test_fig1_table(self):
        t = fig1_structure_table(HemolysinPore().describe())
        assert "7" in str(t.rows[-1][1])

    def test_fig4_kappa_panel(self, study):
        fig = fig4_panel_kappa(study, 100.0)
        labels = {c.label for c in fig.curves}
        assert "v = 25" in labels and "exact" in labels
        with pytest.raises(AnalysisError):
            fig4_panel_kappa(study, 999.0)

    def test_fig4_velocity_panel(self, study):
        fig = fig4_panel_velocity(study, 25.0)
        labels = {c.label for c in fig.curves}
        assert "kappa = 10" in labels and "kappa = 100" in labels

    def test_fig4_error_table(self, study):
        t = fig4_error_table(study)
        assert len(t.rows) == 4
        assert set(t.columns) >= {"kappa_pn", "v", "sigma_stat", "sigma_sys"}

    def test_cost_table_values(self):
        t = cost_model_table(PAPER_COST_MODEL)
        vals = dict(zip(t.column("quantity"), t.column("value")))
        assert vals["vanilla 10 us total"] == pytest.approx(3.072e7, rel=0.01)

    def test_qos_table(self):
        rep = InteractivityReport(10, 1.0, 0.5, 1.5, [0.05] * 10, [0.1] * 10)
        t = qos_table({"production": rep})
        assert t.rows[0][0] == "production"
        assert t.rows[0][1] == pytest.approx(1.5)

    def test_reachability_table(self):
        t = reachability_table({("a", "b"): True, ("b", "a"): False})
        rendered = t.formatted()
        assert "NO" in rendered and "yes" in rendered

    def test_fig5_campaign_table(self):
        from repro.grid import CampaignManager, spice_batch_jobs
        from repro.workflow import build_default_federation

        fed = build_default_federation()
        rep = CampaignManager(fed).run(spice_batch_jobs(n_jobs=8))
        t = fig5_campaign_table({"federation": rep})
        assert t.rows[0][1] == 8
