"""Tests for the axial landscape."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pore import AxialLandscape, default_hemolysin_landscape


class TestAxialLandscape:
    def test_single_gaussian_peak(self):
        l = AxialLandscape([(5.0, 0.0, 2.0)])
        assert l.value(0.0) == pytest.approx(5.0)
        assert l.value(100.0) == pytest.approx(0.0, abs=1e-12)

    def test_tilt_linear(self):
        l = AxialLandscape([], tilt=-2.0)
        assert l.value(3.0) == pytest.approx(-6.0)
        assert l.derivative(10.0) == pytest.approx(-2.0)

    def test_derivative_matches_fd(self):
        l = default_hemolysin_landscape(tilt=-1.0)
        zz = np.linspace(-30, 30, 200)
        h = 1e-6
        fd = (l.value(zz + h) - l.value(zz - h)) / (2 * h)
        np.testing.assert_allclose(l.derivative(zz), fd, atol=1e-6)

    def test_force_is_negative_derivative(self):
        l = default_hemolysin_landscape()
        zz = np.linspace(-20, 20, 50)
        np.testing.assert_allclose(l.force(zz), -l.derivative(zz))

    def test_scalar_and_array_inputs(self):
        l = default_hemolysin_landscape()
        v_scalar = l.value(1.5)
        v_array = l.value(np.array([1.5]))
        assert np.ndim(v_scalar) == 0
        assert v_array.shape == (1,)
        assert float(v_array[0]) == pytest.approx(float(v_scalar))

    @pytest.mark.parametrize("width", [3, 4])
    def test_stacked_rows_equal_their_own_call(self, width):
        """(R, N) input is R independent rows — also when N happens to
        equal the number of Gaussian terms (3), where the particle axis
        used to line up with the term axis."""
        l = default_hemolysin_landscape(tilt=-0.02)
        assert l.n_terms == 3
        zz = np.linspace(-25.0, 25.0, 2 * width).reshape(2, width)
        for fn in (l.value, l.derivative, l.force):
            stacked = fn(zz)
            assert stacked.shape == zz.shape
            for row, z in zip(stacked, zz):
                np.testing.assert_array_equal(row, fn(z))

    def test_stacked_value_regression(self):
        v = default_hemolysin_landscape().value(
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        np.testing.assert_allclose(
            v, [[1.79999, 1.50060, 1.07525], [0.57604, 0.05554, -0.44392]],
            atol=5e-6)

    def test_shifted(self):
        l = AxialLandscape([(2.0, 0.0, 1.0)])
        s = l.shifted(5.0)
        assert s.value(5.0) == pytest.approx(2.0)
        assert s.value(0.0) == pytest.approx(l.value(-5.0))

    def test_scaled(self):
        l = AxialLandscape([(2.0, 0.0, 1.0)], tilt=-1.0)
        s = l.scaled(3.0)
        assert s.value(0.0) == pytest.approx(6.0)
        assert s.tilt == pytest.approx(-3.0)

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            AxialLandscape([(1.0, 0.0, 0.0)])

    def test_default_has_constriction_barrier(self):
        l = default_hemolysin_landscape()
        # Barrier at the constriction (z=0) relative to far outside.
        assert l.value(0.0) > l.value(40.0) - 1.0
        # Vestibule well is attractive.
        assert l.value(18.0) < 0.0

    def test_n_terms(self):
        assert default_hemolysin_landscape().n_terms == 3
