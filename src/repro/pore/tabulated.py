"""Tabulated 1-D potentials and the full-axis effective landscape.

The production goal of the paper is the PMF "along the vertical axis of the
pore" — the *whole* axis, not one 10 A window.  The reduced model needs an
effective chain-level potential over that full range; this module builds it
from the 3-D pore's own on-axis potential (so the reduced landscape is
derived from the substrate, not invented separately) and provides the
generic :class:`TabulatedPotential1D` used to wrap any sampled profile.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from ..errors import ConfigurationError
from .hemolysin import HemolysinPore

__all__ = ["TabulatedPotential1D", "full_axis_chain_potential"]


class TabulatedPotential1D:
    """A 1-D potential defined by dense samples, with interpolated value
    and derivative (the :class:`~repro.pore.reduced.Potential1D` protocol).

    Values are linearly interpolated; derivatives come from the sampled
    gradient (also linearly interpolated), so ``derivative`` is the exact
    derivative of a smoothed version of ``value`` — adequate for grids
    dense against the feature widths.  Outside the grid both are clamped to
    the boundary values (constant extrapolation of the derivative).
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray) -> None:
        g = np.asarray(grid, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if g.ndim != 1 or g.shape != v.shape or g.size < 4:
            raise ConfigurationError("need matching 1-D grid/values, >= 4 points")
        if np.any(np.diff(g) <= 0):
            raise ConfigurationError("grid must be strictly increasing")
        self._grid = g
        self._values = v
        self._deriv = np.gradient(v, g)

    #: Samples :meth:`from_callable` takes over ``[lo, hi]``.
    NODES = 4001

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
    ) -> "TabulatedPotential1D":
        if hi <= lo:
            raise ConfigurationError("need hi > lo")
        grid = np.linspace(lo, hi, cls.NODES)
        return cls(grid, np.asarray(fn(grid), dtype=np.float64))

    def value(self, z):
        zz = np.asarray(z, dtype=np.float64)
        out = np.interp(zz, self._grid, self._values)
        return out if zz.ndim else float(out)

    def derivative(self, z):
        zz = np.asarray(z, dtype=np.float64)
        out = np.interp(zz, self._grid, self._deriv)
        return out if zz.ndim else float(out)

    def stacked_derivative(
            self, total: int,
            column: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The :class:`~repro.pore.reduced.Potential1D` evaluator: ``np.interp``
        is elementwise, so neither the stack size nor the column form
        changes a bit and ``evaluate(z)`` is :meth:`derivative` on the flat
        prefix."""
        grid, deriv = self._grid, self._deriv
        return lambda z: np.interp(z, grid, deriv)

    @property
    def support(self) -> tuple[float, float]:
        return float(self._grid[0]), float(self._grid[-1])

    def fingerprint_data(self) -> dict:
        """Canonical description for result-store fingerprints (see
        :mod:`repro.store.fingerprint`): the table enters as a SHA-256 over
        its float64 grid and value bytes, so a one-ulp change re-keys."""
        digest = hashlib.sha256(self._grid.tobytes())
        digest.update(self._values.tobytes())
        return {
            "kind": "tabulated-1d",
            "n": int(self._grid.size),
            "support": list(self.support),
            "sha256": digest.hexdigest(),
        }


#: Beads simultaneously engaged with the pore interior.
CHAIN_SCALE = 8.0
#: Driving tilt (kcal/mol/A): the bias that makes translocation downhill.
CHAIN_TILT = -10.0
#: Table extent beyond each pore mouth (A).
CHAIN_MARGIN = 15.0


def full_axis_chain_potential() -> TabulatedPotential1D:
    """Effective chain potential along the entire pore axis.

    Built as :data:`CHAIN_SCALE` times the pore's on-axis per-bead
    potential plus the driving tilt :data:`CHAIN_TILT` — the full-axis
    analogue of :func:`~repro.pore.reduced.default_reduced_potential`,
    derived from the 3-D substrate's own landscape.
    """
    p = HemolysinPore()
    g = p.geometry
    lo, hi = g.z_bottom - CHAIN_MARGIN, g.z_top + CHAIN_MARGIN

    def fn(z: np.ndarray) -> np.ndarray:
        return CHAIN_SCALE * p.axial_potential(z) + CHAIN_TILT * z

    return TabulatedPotential1D.from_callable(fn, lo, hi)
