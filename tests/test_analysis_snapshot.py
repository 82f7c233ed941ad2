"""Tests for the text-mode structure renderer."""

import numpy as np
import pytest

from repro.analysis import render_cross_section
from repro.errors import AnalysisError
from repro.pore import DEFAULT_GEOMETRY


class TestCrossSection:
    def test_renders_wall_and_legend(self):
        text = render_cross_section(DEFAULT_GEOMETRY)
        assert "#" in text
        assert "legend" in text
        assert "z = +65 A" in text

    def test_beads_rendered(self):
        pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 20.0]])
        text = render_cross_section(DEFAULT_GEOMETRY, pos)
        assert "o" in text

    def test_overlapping_beads_marked(self):
        pos = np.zeros((5, 3))  # all at the same spot
        text = render_cross_section(DEFAULT_GEOMETRY, pos)
        assert "O" in text

    def test_out_of_frame_beads_skipped(self):
        pos = np.array([[500.0, 0.0, 0.0], [0.0, 0.0, 500.0]])
        text = render_cross_section(DEFAULT_GEOMETRY, pos)
        assert "o" not in text.split("legend")[0]

    def test_silhouette_mirrored(self):
        # Each wall row must have exactly two '#' characters, symmetric.
        text = render_cross_section(DEFAULT_GEOMETRY)
        for line in text.split("\n")[1:-2]:
            count = line.count("#")
            assert count in (0, 1, 2)  # 1 when both columns coincide on axis

    def test_bad_positions(self):
        with pytest.raises(AnalysisError):
            render_cross_section(DEFAULT_GEOMETRY, np.zeros((2, 2)))

    def test_narrowest_at_constriction(self):
        # Extract per-row wall half-width; the minimum must occur at a row
        # corresponding to z ~ 0.
        text = render_cross_section(DEFAULT_GEOMETRY)
        rows = text.split("\n")[1:-2]
        widths = {}
        for i, line in enumerate(rows):
            if line.count("#") == 2:
                a = line.index("#")
                b = line.rindex("#")
                widths[i] = b - a
        assert widths
        narrow_row = min(widths, key=widths.get)
        # z=0 maps to the middle of the [-65, 65] span.
        assert abs(narrow_row - len(rows) / 2) < len(rows) * 0.2
