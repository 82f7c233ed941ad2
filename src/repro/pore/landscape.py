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

from typing import Callable, Iterable, Tuple

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

    def stacked_derivative(
            self, total: int,
            column: bool) -> Callable[[np.ndarray], np.ndarray]:
        """Bind :meth:`derivative` to work buffers for a stack of ``total``
        coordinates (the :class:`~repro.pore.reduced.Potential1D`
        evaluator): ``evaluate(z[:n])`` has the bits of ``derivative(z[:n])``
        — or of ``derivative(z[:n, None])[:, 0]`` when ``column`` is set —
        in an ``(n,)`` view of a buffer it owns.

        The arithmetic is :meth:`derivative`'s in nine ufunc calls that
        write in place: centre and width are tiled to ``(total, K)`` (or
        ``(total, 1, K)``), ``-u / w`` is spelled ``u / (-w)`` (IEEE
        negation is exact), and ``exp`` and the ``matmul`` see the shapes
        and C-contiguous layout they see there.
        """
        shape = (total, 1, self.n_terms) if column else (total, self.n_terms)
        center = np.broadcast_to(self._center, shape).copy()
        width = np.broadcast_to(self._width, shape).copy()
        neg_width = -width
        u, e, g = np.empty(shape), np.empty(shape), np.empty(shape)
        out = np.empty(shape[:-1])
        amp, tilt = self._amp, self.tilt
        views: dict = {}        # prefix length -> the buffers cut to it

        def evaluate(z: np.ndarray) -> np.ndarray:
            n = z.shape[0]
            cut = views.get(n)
            if cut is None:
                cut = views[n] = (center[:n], width[:n], neg_width[:n],
                                  u[:n], e[:n], g[:n], out[:n],
                                  out[:n, 0] if column else out[:n])
            c, w, nw, un, en, gn, dn, flat = cut
            np.subtract(z[:, None, None] if column else z[:, None], c, un)
            np.divide(un, w, un)
            np.multiply(un, un, en)
            np.multiply(en, -0.5, en)
            np.exp(en, en)
            np.divide(un, nw, gn)
            np.multiply(en, gn, gn)
            np.matmul(gn, amp, dn)
            np.add(dn, tilt, dn)
            return flat

        return evaluate

    def force(self, z: np.ndarray | float) -> np.ndarray:
        """Axial force ``-dU/dz``."""
        return -self.derivative(z)

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


def default_hemolysin_landscape() -> AxialLandscape:
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
    )
