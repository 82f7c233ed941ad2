"""TAB-COST — the Section I/II back-of-the-envelope economics.

Regenerates every quoted number: 3000 CPU-h per ns, 3e7 CPU-h for the
vanilla 10-us translocation, the SMD-JE 50-100x reduction, and the
"couple of decades" Moore's-law wait.
"""

import pytest

from repro.analysis import cost_model_table
from repro.grid import PAPER_COST_MODEL

from conftest import once


def test_cost_model_table(benchmark, emit):
    table = once(benchmark, lambda: cost_model_table(PAPER_COST_MODEL))
    emit("cost_model", table.formatted("{:.4g}"), csv=table.to_csv())

    vals = dict(zip(table.column("quantity"), table.column("value")))
    # "about 3000 CPU-hours ... to simulate 1ns"
    assert vals["CPU-hours per ns (300k atoms)"] == pytest.approx(3072.0)
    # "3 x 10^7 CPU-hours to simulate 10 microseconds"
    assert vals["vanilla 10 us total"] == pytest.approx(3.072e7)
    # "reduced by a factor of 50-100"
    assert vals["SMD-JE total (50x)"] == pytest.approx(3.072e7 / 50)
    assert vals["SMD-JE total (100x)"] == pytest.approx(3.072e7 / 100)
    # "a couple of decades away"
    assert 10.0 < vals["Moore's-law wait for routine"] < 30.0


def test_smdje_decomposition_consistency(benchmark, emit):
    """The SMD-JE campaign actually fits the reduction bracket: 72 jobs of
    ~0.35 ns each vs the 10-us vanilla run."""
    from repro.grid import spice_batch_jobs

    def compute():
        jobs = spice_batch_jobs(n_jobs=72)
        smdje_total = sum(j.cpu_hours for j in jobs)
        vanilla = PAPER_COST_MODEL.vanilla_total_cpu_hours()
        return smdje_total, vanilla / smdje_total

    smdje_total, reduction = once(benchmark, compute)
    emit("cost_reduction",
         f"SMD-JE campaign: {smdje_total:.0f} CPU-h\n"
         f"vanilla:        {PAPER_COST_MODEL.vanilla_total_cpu_hours():.3g} CPU-h\n"
         f"effective reduction factor: {reduction:.0f}x "
         f"(paper bracket: 50-100x; the production campaign pushes beyond "
         f"it because each job is a sub-ns pull)")
    assert reduction > 50.0
