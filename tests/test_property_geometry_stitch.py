"""Property-based tests: pore geometry invariants and PMF stitching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pore import PoreGeometry
from repro.smd import stitch_pmfs


@st.composite
def geometries(draw):
    barrel = draw(st.floats(min_value=5.0, max_value=15.0))
    vestibule = draw(st.floats(min_value=16.0, max_value=30.0))
    constriction = draw(st.floats(min_value=2.0, max_value=min(barrel, vestibule) - 1.0))
    width = draw(st.floats(min_value=1.0, max_value=15.0))
    # The pore is one geometry; the properties hold for any profile
    # parameters, so each example overrides the class constants.
    return type("DrawnGeometry", (PoreGeometry,), {
        "vestibule_radius": vestibule,
        "barrel_radius": barrel,
        "constriction_radius": constriction,
        "constriction_width": width,
    })()


class TestGeometryProperties:
    @given(geometries())
    @settings(max_examples=50, deadline=None)
    def test_radius_bounds(self, g):
        zz = np.linspace(g.z_bottom - 10, g.z_top + 10, 300)
        rr = g.radius(zz)
        assert np.all(rr >= g.constriction_radius - 1e-9)
        assert np.all(rr <= g.vestibule_radius + 1e-9)

    @given(geometries())
    @settings(max_examples=50, deadline=None)
    def test_constriction_attained(self, g):
        assert g.radius(g.z_constriction) == pytest.approx(g.constriction_radius)

    @given(geometries())
    @settings(max_examples=30, deadline=None)
    def test_derivative_consistency(self, g):
        zz = np.linspace(g.z_bottom, g.z_top, 100)
        h = 1e-6
        fd = (g.radius(zz + h) - g.radius(zz - h)) / (2 * h)
        np.testing.assert_allclose(g.radius_derivative(zz), fd, atol=1e-5)


@st.composite
def window_sets(draw):
    n_windows = draw(st.integers(min_value=1, max_value=5))
    pts = draw(st.integers(min_value=2, max_value=12))
    width = draw(st.floats(min_value=0.5, max_value=10.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    starts = [i * width for i in range(n_windows)]
    disp = np.linspace(0.0, width, pts)
    pmfs = [np.concatenate([[0.0], np.cumsum(rng.normal(size=pts - 1))])
            for _ in range(n_windows)]
    return [disp.copy() for _ in range(n_windows)], pmfs, starts


class TestStitchProperties:
    @given(window_sets())
    @settings(max_examples=60, deadline=None)
    def test_monotone_axis_and_continuity(self, ws):
        disps, pmfs, starts = ws
        z, pmf = stitch_pmfs(disps, pmfs, starts)
        assert np.all(np.diff(z) > 0)
        assert pmf[0] == pytest.approx(0.0)
        # No jumps larger than the largest within-window increment.
        if pmf.size > 1:
            max_step = max(
                float(np.abs(np.diff(p)).max()) if p.size > 1 else 0.0
                for p in pmfs
            )
            assert float(np.abs(np.diff(pmf)).max()) <= max_step + 1e-9

    @given(window_sets())
    @settings(max_examples=40, deadline=None)
    def test_endpoint_is_sum_of_window_drops(self, ws):
        disps, pmfs, starts = ws
        _, pmf = stitch_pmfs(disps, pmfs, starts)
        expected = sum(float(p[-1] - p[0]) for p in pmfs)
        assert pmf[-1] == pytest.approx(expected, abs=1e-9)
