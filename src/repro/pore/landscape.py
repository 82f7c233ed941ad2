"""Axial free-energy landscape of the pore interior.

The all-atom pore presents the translocating DNA with an effective potential
along the pore axis: binding in the vestibule, a barrier at the constriction,
weaker binding in the beta-barrel, plus an optional linear tilt from an
applied transmembrane voltage.  We model this per-bead landscape as a sum of
Gaussians plus a tilt — analytic value and derivative, so the reduced model's
*reference PMF is known exactly* (the key enabler for measuring systematic
error in the Fig. 4 reproduction).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["AxialLandscape", "default_hemolysin_landscape"]


class AxialLandscape:
    """``U(z) = sum_k A_k exp(-(z - c_k)^2 / (2 w_k^2)) + tilt * z``.

    Parameters
    ----------
    terms:
        Iterable of ``(amplitude, center, width)`` tuples; negative
        amplitudes are wells, positive are barriers.  Energies in kcal/mol
        (per bead), lengths in A.
    tilt:
        Linear slope in kcal/mol/A (e.g. electrophoretic driving force from
        the applied voltage; negative pulls toward decreasing z).
    """

    def __init__(
        self,
        terms: Iterable[Tuple[float, float, float]],
        tilt: float = 0.0,
    ) -> None:
        t = [(float(a), float(c), float(w)) for a, c, w in terms]
        for a, c, w in t:
            if w <= 0.0:
                raise ConfigurationError(f"Gaussian width must be positive, got {w}")
        self._amp = np.array([a for a, _, _ in t], dtype=np.float64)
        self._center = np.array([c for _, c, _ in t], dtype=np.float64)
        self._width = np.array([w for _, _, w in t], dtype=np.float64)
        self.tilt = float(tilt)

    @property
    def n_terms(self) -> int:
        return self._amp.size

    def value(self, z: np.ndarray | float) -> np.ndarray:
        """Landscape energy at ``z`` (kcal/mol), in the shape of ``z``: an
        ``(R, N)`` stack is R ``(N, K) @ (K,)`` products (batched
        ``matmul``), each the product its row gets alone."""
        zz = np.atleast_1d(np.asarray(z, dtype=np.float64))
        u = (zz[..., None] - self._center) / self._width
        out = np.exp(-0.5 * u**2) @ self._amp + self.tilt * zz
        return out if np.ndim(z) else out[0]

    def derivative(self, z: np.ndarray | float) -> np.ndarray:
        """``dU/dz`` at ``z`` (kcal/mol/A), in the shape of ``z``."""
        zz = np.atleast_1d(np.asarray(z, dtype=np.float64))
        u = (zz[..., None] - self._center) / self._width
        g = np.exp(-0.5 * u**2) * (-u / self._width)
        out = g @ self._amp + self.tilt
        return out if np.ndim(z) else out[0]

    def force(self, z: np.ndarray | float) -> np.ndarray:
        """Axial force ``-dU/dz``."""
        return -self.derivative(z)

    def shifted(self, dz: float) -> "AxialLandscape":
        """New landscape translated by ``dz`` along the axis."""
        terms = list(zip(self._amp, self._center + dz, self._width))
        return AxialLandscape(terms, tilt=self.tilt)

    def scaled(self, factor: float) -> "AxialLandscape":
        """New landscape with all amplitudes (and tilt) scaled."""
        terms = list(zip(self._amp * factor, self._center, self._width))
        return AxialLandscape(terms, tilt=self.tilt * factor)

    def fingerprint_data(self) -> dict:
        """Canonical parameter description for result-store fingerprints
        (see :mod:`repro.store.fingerprint`): every number that enters
        :meth:`value`/:meth:`derivative`, in construction order."""
        return {
            "kind": "axial-landscape",
            "terms": [[float(a), float(c), float(w)]
                      for a, c, w in zip(self._amp, self._center, self._width)],
            "tilt": float(self.tilt),
        }


def default_hemolysin_landscape(tilt: float = 0.0) -> AxialLandscape:
    """Per-bead axial landscape for the default hemolysin geometry.

    Stations match :class:`repro.pore.geometry.PoreGeometry` defaults:
    a vestibule binding well around z = +18, the constriction barrier at
    z = 0 (where Fig. 3 shows the strand stretching), and a shallower
    beta-barrel well near z = -18.  Amplitudes are per-bead; a 12-30 bead
    ssDNA accumulates PMF variations of tens of kcal/mol across a 10 A
    window, the scale of the paper's Fig. 4 ordinate.
    """
    return AxialLandscape(
        terms=[
            (-3.0, 18.0, 9.0),   # vestibule binding
            (2.5, 0.0, 4.0),     # constriction barrier
            (-2.0, -18.0, 8.0),  # barrel binding
        ],
        tilt=tilt,
    )
