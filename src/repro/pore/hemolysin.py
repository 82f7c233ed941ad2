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

from typing import Tuple

import numpy as np

from ..md.kernels import Energy
from .geometry import DEFAULT_GEOMETRY
from .landscape import default_hemolysin_landscape

__all__ = ["HemolysinPore"]

#: Half-harmonic wall constant in kcal/mol/A^2.
_WALL_STIFFNESS = 10.0
#: Width (A) of the smooth axial on/off envelope at the pore ends and of
#: the radial envelope gating the axial landscape.
_ENVELOPE_WIDTH = 2.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically safe logistic: exp(-|x|) never overflows, and it is the
    # exp(-x) of the x >= 0 branch and the exp(x) of the other.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class HemolysinPore:
    """Analytic effective potential of the alpha-hemolysin pore.

    The radius profile is :data:`~repro.pore.geometry.DEFAULT_GEOMETRY`,
    whose ``sevenfold_amplitude`` sets the cos(7 phi) heptamer wall
    modulation; the axial per-bead landscape is
    :func:`~repro.pore.landscape.default_hemolysin_landscape`.
    """

    def __init__(self) -> None:
        self.geometry = DEFAULT_GEOMETRY
        self.landscape = default_hemolysin_landscape()

    # -- envelopes -------------------------------------------------------------

    def _axial_envelope(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Smooth indicator of "inside the pore axially" and its z-derivative."""
        w = _ENVELOPE_WIDTH
        g = self.geometry
        lo = _sigmoid((z - g.z_bottom) / w)
        hi = _sigmoid((g.z_top - z) / w)
        env = lo * hi
        denv = (lo * (1.0 - lo) / w) * hi - lo * (hi * (1.0 - hi) / w)
        return env, denv

    def _radial_envelope(self, r: np.ndarray,
                         rw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Smooth indicator of "inside the lumen radially" and d/dr, for
        beads at radius ``r`` where the (axisymmetric) wall radius is ``rw``.

        Gates the axial landscape: a bead far outside the wall radius should
        feel no interior landscape.
        """
        w = _ENVELOPE_WIDTH
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
        phi = np.arctan2(y, x)
        amp = self.geometry.sevenfold_amplitude
        radius = self.geometry.radius(z)
        rw = radius + amp * np.cos(7.0 * phi)
        drw_dphi = -7.0 * amp * np.sin(7.0 * phi)
        drw_dz = self.geometry.radius_derivative(z)

        overlap = r - rw
        out = overlap > 0.0
        k = _WALL_STIFFNESS
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
            # dU/dphi = k env o * (-dR/dphi); torque -> tangential force
            # F_t = -(1/r) dU/dphi along (-sin phi, cos phi).
            dU_dphi = -k * env * o * drw_dphi
            f_t = -dU_dphi / safe_r
            forces[..., 0] += f_t * (-uy)
            forces[..., 1] += f_t * ux

        # ---- axial landscape gated by envelopes ----
        renv, drenv_dr = self._radial_envelope(r, radius)
        u_ax, du_ax = self.landscape.value_and_derivative(z)
        gate = env * renv
        land_energy = np.sum(gate * u_ax, axis=-1)
        # dU/dz: product rule across env(z), renv(r, z), u_ax(z).  renv
        # depends on z through R(z); include that term for exactness.
        w = _ENVELOPE_WIDTH
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
        zz = np.atleast_1d(np.asarray(z, dtype=np.float64))
        env, _ = self._axial_envelope(zz)
        renv, _ = self._radial_envelope(np.zeros_like(zz),
                                        self.geometry.radius(zz))
        out = env * renv * self.landscape.value(zz)
        return out if np.ndim(z) else out[0]

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
            "symmetry_order": 7,
        }
