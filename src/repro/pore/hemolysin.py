"""The alpha-hemolysin pore as an external field potential.

Replaces the paper's all-atom heptameric protein with an analytic effective
potential with three pieces:

1. a **confining wall** — half-harmonic repulsion where a bead's cylindrical
   radius exceeds the (sevenfold-modulated) wall radius ``R(z, phi)``,
   active only over the pore's axial extent (smooth envelope);
2. the **axial landscape** — per-bead wells/barrier from
   :mod:`repro.pore.landscape`, gated by a radial envelope so it acts only
   on beads actually inside the lumen;
3. nothing outside — the membrane exterior is a separate term
   (:class:`repro.pore.membrane.MembraneSlab`).

Forces are the exact analytic gradient of the energy (validated by the NVE
energy-conservation tests), with the usual measure-zero kinks at clamped
profile sections.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..md.kernels import Energy
from .geometry import DEFAULT_GEOMETRY, PoreGeometry
from .landscape import AxialLandscape, default_hemolysin_landscape

__all__ = ["HemolysinPore"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically safe logistic.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class HemolysinPore:
    """Analytic effective potential of the alpha-hemolysin pore.

    Parameters
    ----------
    geometry:
        Pore radius profile (default: crystal-structure-like dimensions).
    landscape:
        Axial per-bead landscape; default is
        :func:`~repro.pore.landscape.default_hemolysin_landscape`.
    wall_stiffness:
        Half-harmonic wall constant in kcal/mol/A^2.
    envelope_width:
        Width (A) of the smooth axial on/off envelope at the pore ends and
        of the radial envelope gating the axial landscape.
    sevenfold:
        Include the cos(7 phi) heptamer wall modulation.
    """

    def __init__(
        self,
        geometry: PoreGeometry = DEFAULT_GEOMETRY,
        landscape: Optional[AxialLandscape] = None,
        wall_stiffness: float = 10.0,
        envelope_width: float = 2.0,
        sevenfold: bool = True,
    ) -> None:
        if wall_stiffness <= 0.0:
            raise ConfigurationError("wall_stiffness must be positive")
        if envelope_width <= 0.0:
            raise ConfigurationError("envelope_width must be positive")
        self.geometry = geometry
        self.landscape = landscape if landscape is not None else default_hemolysin_landscape()
        self.wall_stiffness = float(wall_stiffness)
        self.envelope_width = float(envelope_width)
        self.sevenfold = bool(sevenfold)

    # -- envelopes -------------------------------------------------------------

    def _axial_envelope(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Smooth indicator of "inside the pore axially" and its z-derivative."""
        w = self.envelope_width
        g = self.geometry
        lo = _sigmoid((z - g.z_bottom) / w)
        hi = _sigmoid((g.z_top - z) / w)
        env = lo * hi
        denv = (lo * (1.0 - lo) / w) * hi - lo * (hi * (1.0 - hi) / w)
        return env, denv

    def _radial_envelope(self, r: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Smooth indicator of "inside the lumen radially" and d/dr.

        Gates the axial landscape: a bead far outside the wall radius should
        feel no interior landscape.
        """
        w = self.envelope_width
        rw = self.geometry.radius(z)
        x = (rw - r) / w
        env = _sigmoid(x)
        denv_dr = -env * (1.0 - env) / w
        return env, denv_dr

    # -- FieldPotential interface ------------------------------------------------

    def energy_and_forces(self, positions: np.ndarray) -> Tuple[Energy, np.ndarray]:
        """Total pore energy and per-particle forces for ``(n, 3)``
        positions, or one energy per replica of an ``(R, n, 3)`` stack:
        elementwise per bead, each energy the sum over the replica's own
        row, so a stack row holds the bits of its solo call."""
        pos = np.asarray(positions, dtype=np.float64)
        x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
        r = np.sqrt(x**2 + y**2)
        # Unit radial direction; a bead exactly on the axis gets an arbitrary
        # but consistent direction (zero force there anyway).
        safe_r = np.where(r > 1e-12, r, 1.0)
        ux, uy = x / safe_r, y / safe_r

        forces = np.zeros_like(pos)
        env, denv = self._axial_envelope(z)

        # ---- confining wall ----
        if self.sevenfold and self.geometry.sevenfold_amplitude != 0.0:
            phi = np.arctan2(y, x)
            amp = self.geometry.sevenfold_amplitude
            rw = self.geometry.radius(z) + amp * np.cos(7.0 * phi)
            drw_dphi = -7.0 * amp * np.sin(7.0 * phi)
        else:
            rw = self.geometry.radius(z)
            drw_dphi = None
        drw_dz = self.geometry.radius_derivative(z)

        overlap = r - rw
        out = overlap > 0.0
        k = self.wall_stiffness
        e_wall = 0.5 * k * env * np.where(out, overlap, 0.0) ** 2
        wall_energy = e_wall.sum(axis=-1)
        # A shortcut only: without overlap every wall force below is a
        # signed zero added to +0.0, whatever else is in the stack.
        if np.any(out):
            o = np.where(out, overlap, 0.0)
            # dU/dr = k env o ; radial direction.
            f_r = -k * env * o
            forces[..., 0] += f_r * ux
            forces[..., 1] += f_r * uy
            # dU/dz = 0.5 k denv o^2 + k env o (-dR/dz)
            forces[..., 2] -= 0.5 * k * denv * o**2 - k * env * o * drw_dz
            if drw_dphi is not None:
                # dU/dphi = k env o * (-dR/dphi); torque -> tangential force
                # F_t = -(1/r) dU/dphi along (-sin phi, cos phi).
                dU_dphi = -k * env * o * drw_dphi
                f_t = -dU_dphi / safe_r
                forces[..., 0] += f_t * (-uy)
                forces[..., 1] += f_t * ux

        # ---- axial landscape gated by envelopes ----
        renv, drenv_dr = self._radial_envelope(r, z)
        u_ax = self.landscape.value(z)
        du_ax = self.landscape.derivative(z)
        gate = env * renv
        land_energy = np.sum(gate * u_ax, axis=-1)
        # dU/dz: product rule across env(z), renv(r, z), u_ax(z).  renv
        # depends on z through R(z); include that term for exactness.
        w = self.envelope_width
        drenv_dz = renv * (1.0 - renv) * drw_dz / w
        forces[..., 2] -= denv * renv * u_ax + env * drenv_dz * u_ax + gate * du_ax
        # dU/dr
        f_r2 = -env * drenv_dr * u_ax
        forces[..., 0] += f_r2 * ux
        forces[..., 1] += f_r2 * uy

        return wall_energy + land_energy, forces

    # -- analysis helpers ----------------------------------------------------------

    def axial_potential(self, z: np.ndarray | float) -> np.ndarray:
        """On-axis (r = 0) potential: the landscape gated by both envelopes.

        On the axis the radial envelope is ``sigmoid(R(z)/w)`` — about 0.97
        at the default constriction and closer to 1 elsewhere — so this is
        the effective single-bead potential the reduced 1-D model mirrors.
        """
        zz = np.asarray(z, dtype=np.float64)
        env, _ = self._axial_envelope(np.atleast_1d(zz))
        renv, _ = self._radial_envelope(
            np.zeros_like(np.atleast_1d(zz)), np.atleast_1d(zz)
        )
        out = env * renv * self.landscape.value(np.atleast_1d(zz))
        return out if zz.ndim else out[0]

    def describe(self) -> dict:
        """Structural summary used by the Fig. 1 reproduction."""
        g = self.geometry
        zz, rr = g.radius_profile(401)
        i_min = int(np.argmin(rr))
        return {
            "length": g.length,
            "vestibule_radius": g.vestibule_radius,
            "barrel_radius": g.barrel_radius,
            "constriction_radius": g.constriction_radius,
            "constriction_z": float(zz[i_min]),
            "min_radius": float(rr[i_min]),
            "sevenfold_amplitude": g.sevenfold_amplitude,
            "symmetry_order": (
                7 if self.sevenfold and g.sevenfold_amplitude > 0 else 1
            ),
        }
