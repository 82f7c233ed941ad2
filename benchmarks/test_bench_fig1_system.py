"""FIG1 — the model system (ssDNA in the alpha-hemolysin pore).

Fig. 1 is a rendering; its checkable content is the system's structure:
pore dimensions, sevenfold symmetry, the membrane-embedded barrel, and a
built ssDNA threaded at the mouth.  This benchmark regenerates that
structural table plus the radius profile R(z) (the quantitative shadow of
Fig. 1b) and the assembled-system inventory.
"""

from repro.analysis import Curve, FigureData, fig1_structure_table, render_figure
from repro.pore import HemolysinPore, build_translocation_simulation

from conftest import once


def test_fig1_structure(benchmark, emit):
    def build():
        pore = HemolysinPore()
        ts = build_translocation_simulation(n_bases=12, seed=2005)
        return pore, ts

    pore, ts = once(benchmark, build)
    table = fig1_structure_table(pore.describe())

    z, r = pore.geometry.radius_profile(201)
    fig = FigureData("Fig. 1b shadow - pore radius profile", "z (A)", "R (A)")
    fig.add(Curve("R(z)", z, r))

    inventory = [
        f"DNA beads: {ts.simulation.system.n}",
        f"DNA net charge: {ts.simulation.system.charges.sum():g} e",
        f"force terms: {len(ts.simulation.forces)}",
        f"DNA COM on axis at z = {ts.dna_com_z:.1f} A",
    ]
    emit("fig1", table.formatted() + "\n\n" + render_figure(fig) + "\n\n"
         + "\n".join(inventory), csv=fig.to_csv())

    d = pore.describe()
    assert d["symmetry_order"] == 7
    assert d["min_radius"] < d["barrel_radius"] < d["vestibule_radius"]
    # Constriction near the vestibule/stem junction, not at the pore ends.
    assert abs(d["constriction_z"]) < 10.0
