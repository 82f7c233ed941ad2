"""Force-term interface and bonded force terms.

Every force term implements :class:`Force`: given the live position array it
*accumulates* forces into a caller-provided output array and returns its
potential energy.  Accumulation (rather than returning fresh arrays) keeps
the per-step allocation count constant, per the hpc-parallel guides.

Bonded terms come in two selectable kernels (see :mod:`repro.md.kernels`):
the default ``"vectorized"`` kernel evaluates all bonds/angles as one batch
with bincount scatter-adds, the ``"reference"`` kernel walks them one at a
time in plain Python as the correctness oracle.  The vectorised body is
written once over an optional leading replica axis: ``(N, 3)`` positions
give a float energy, an ``(R, N, 3)`` stack gives ``(R,)`` energies, and
replica ``r`` of a stack is bit-identical to the solo evaluation of its
rows (elementwise expressions, the flattening scatter bound to each term's
fixed index sets, and the in-order per-row energy sum of
:func:`~repro.md.kernels.weighted_sums`).
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .kernels import (
    Energy,
    _bound_scatter,
    no_energy,
    per_replica,
    validate_kernel,
    weighted_sums,
)
from .topology import Topology

__all__ = ["Force", "FENEBondForce", "HarmonicAngleForce"]


class Force(Protocol):
    """Protocol for all force terms (bonded, nonbonded, external, SMD).

    A term whose ``compute`` also takes an ``(R, N, 3)`` stack (returning
    ``(R,)`` energies) says so with a class attribute ``stackable = True``;
    any other term — a user's own included — only ever sees ``(N, 3)``:
    the engine evaluates it once per replica.
    """

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        """Accumulate forces (kcal/mol/A) into ``forces`` and return the
        potential energy (kcal/mol) of this term."""
        ...


class FENEBondForce:
    """Finitely extensible nonlinear elastic bonds.

    ``U = -0.5 k rmax^2 ln(1 - (r/rmax)^2)`` — the standard bead-spring
    backbone for coarse-grained polymers (here: the ssDNA backbone), which
    hard-limits bond extension so the strand can stretch at the pore
    constriction (paper Fig. 3) without breaking.

    Per-bond parameters from the topology are interpreted as ``(k, rmax)``.
    ``kernel`` selects the batched or per-bond implementation.  One
    divergence of a stack from per-replica runs: if *any* replica stretches
    a bond beyond ``rmax`` the whole stacked call raises, where solo
    execution would only fail the exploded replica.
    """

    stackable = True

    def __init__(self, topology: Topology, kernel: str = "vectorized") -> None:
        self._i = topology.bonds[:, 0]
        self._j = topology.bonds[:, 1]
        self._k = topology.bond_params[:, 0]
        self._rmax = topology.bond_params[:, 1]
        self._scatter_i = _bound_scatter(self._i)
        self._scatter_j = _bound_scatter(self._j)
        self.kernel = validate_kernel(kernel)
        if np.any(self._rmax <= 0.0):
            raise ConfigurationError("FENE rmax must be positive")

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        if self._i.size == 0:
            return no_energy(positions)
        if self.kernel == "reference":
            return per_replica(self._compute_reference, positions, forces)
        dr = positions[..., self._j, :] - positions[..., self._i, :]
        r2 = np.einsum("...ij,...ij->...i", dr, dr)
        x = r2 / self._rmax**2
        if np.any(x >= 1.0):
            raise SimulationError("FENE bond stretched beyond rmax (system exploded)")
        energy = -0.5 * weighted_sums(self._k * self._rmax**2, np.log1p(-x))
        # F_j = -k r / (1 - x) * unit(dr)  ->  coefficient on dr is -k/(1-x).
        coeff = -self._k / (1.0 - x)
        fij = dr * coeff[..., None]
        self._scatter_j(forces, fij)
        self._scatter_i(forces, -fij)
        return energy

    def _compute_reference(self, positions: np.ndarray, forces: np.ndarray) -> float:
        """One bond at a time (oracle)."""
        energy = 0.0
        for b in range(self._i.size):
            i, j = int(self._i[b]), int(self._j[b])
            dr = positions[j] - positions[i]
            r2 = float(dr @ dr)
            rmax = float(self._rmax[b])
            k = float(self._k[b])
            x = r2 / (rmax * rmax)
            if x >= 1.0:
                raise SimulationError(
                    "FENE bond stretched beyond rmax (system exploded)"
                )
            energy += -0.5 * k * rmax * rmax * math.log1p(-x)
            coeff = -k / (1.0 - x)
            fij = dr * coeff
            forces[j] += fij
            forces[i] -= fij
        return energy


class HarmonicAngleForce:
    """Harmonic angle bending: ``U = 0.5 k (theta - theta0)^2``.

    Provides chain stiffness (persistence length) for the CG ssDNA.
    ``kernel`` selects the batched or per-angle implementation.
    """

    stackable = True

    def __init__(self, topology: Topology, kernel: str = "vectorized") -> None:
        self._i = topology.angles[:, 0]
        self._j = topology.angles[:, 1]
        self._k = topology.angles[:, 2]
        self._kt = topology.angle_params[:, 0]
        self._t0 = topology.angle_params[:, 1]
        self._scatter_i = _bound_scatter(self._i)
        self._scatter_j = _bound_scatter(self._j)
        self._scatter_k = _bound_scatter(self._k)
        self.kernel = validate_kernel(kernel)

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        if self._i.size == 0:
            return no_energy(positions)
        if self.kernel == "reference":
            return per_replica(self._compute_reference, positions, forces)
        rij = positions[..., self._i, :] - positions[..., self._j, :]
        rkj = positions[..., self._k, :] - positions[..., self._j, :]
        nij = np.sqrt(np.einsum("...ij,...ij->...i", rij, rij))
        nkj = np.sqrt(np.einsum("...ij,...ij->...i", rkj, rkj))
        cos_t = np.einsum("...ij,...ij->...i", rij, rkj) / (nij * nkj)
        cos_t = np.clip(cos_t, -1.0, 1.0)
        theta = np.arccos(cos_t)
        dtheta = theta - self._t0
        energy = 0.5 * weighted_sums(self._kt, dtheta**2)

        # dU/dtheta, with the sin(theta) singularity regularized: collinear
        # configurations exert no restoring torque direction anyway.
        sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 1e-12))
        dU = self._kt * dtheta
        # Gradient of theta w.r.t. end points: dtheta/dr_i =
        # -(u_k - cos u_i)/(|r_ij| sin), so F_i = +dU (u_k - cos u_i)/(|r_ij| sin).
        ui = rij / nij[..., None]
        uk = rkj / nkj[..., None]
        fi = (dU / (nij * sin_t))[..., None] * (uk - cos_t[..., None] * ui)
        fk = (dU / (nkj * sin_t))[..., None] * (ui - cos_t[..., None] * uk)
        self._scatter_i(forces, fi)
        self._scatter_k(forces, fk)
        self._scatter_j(forces, -(fi + fk))
        return energy


    def _compute_reference(self, positions: np.ndarray, forces: np.ndarray) -> float:
        """One angle at a time (oracle)."""
        energy = 0.0
        for a in range(self._i.size):
            i, j, k = int(self._i[a]), int(self._j[a]), int(self._k[a])
            rij = positions[i] - positions[j]
            rkj = positions[k] - positions[j]
            nij = math.sqrt(float(rij @ rij))
            nkj = math.sqrt(float(rkj @ rkj))
            cos_t = float(rij @ rkj) / (nij * nkj)
            cos_t = min(1.0, max(-1.0, cos_t))
            theta = math.acos(cos_t)
            dtheta = theta - float(self._t0[a])
            kt = float(self._kt[a])
            energy += 0.5 * kt * dtheta * dtheta
            sin_t = math.sqrt(max(1.0 - cos_t * cos_t, 1e-12))
            dU = kt * dtheta
            ui = rij / nij
            uk = rkj / nkj
            fi = (dU / (nij * sin_t)) * (uk - cos_t * ui)
            fk = (dU / (nkj * sin_t)) * (ui - cos_t * uk)
            forces[i] += fi
            forces[k] += fk
            forces[j] -= fi + fk
        return energy
