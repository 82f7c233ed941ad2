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
from typing import Callable, Optional

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

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        n: int = 2001,
    ) -> "TabulatedPotential1D":
        if hi <= lo:
            raise ConfigurationError("need hi > lo")
        grid = np.linspace(lo, hi, n)
        return cls(grid, np.asarray(fn(grid), dtype=np.float64))

    def value(self, z):
        zz = np.asarray(z, dtype=np.float64)
        out = np.interp(zz, self._grid, self._values)
        return out if zz.ndim else float(out)

    def derivative(self, z):
        zz = np.asarray(z, dtype=np.float64)
        out = np.interp(zz, self._grid, self._deriv)
        return out if zz.ndim else float(out)

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


def full_axis_chain_potential(
    pore: Optional[HemolysinPore] = None,
    chain_scale: float = 8.0,
    tilt: float = -10.0,
    margin: float = 15.0,
    n: int = 4001,
) -> TabulatedPotential1D:
    """Effective chain potential along the entire pore axis.

    Built as ``chain_scale`` times the pore's on-axis per-bead potential
    (the number of beads simultaneously engaged with the pore interior)
    plus the driving tilt — the full-axis analogue of
    :func:`~repro.pore.reduced.default_reduced_potential`, derived from the
    3-D substrate's own landscape.
    """
    if chain_scale <= 0:
        raise ConfigurationError("chain_scale must be positive")
    p = pore if pore is not None else HemolysinPore()
    g = p.geometry
    lo, hi = g.z_bottom - margin, g.z_top + margin

    def fn(z: np.ndarray) -> np.ndarray:
        return chain_scale * p.axial_potential(z) + tilt * z

    return TabulatedPotential1D.from_callable(fn, lo, hi, n)
