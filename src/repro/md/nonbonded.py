"""Nonbonded force terms: Lennard-Jones / WCA excluded volume and
Debye-Hueckel screened electrostatics.

Both terms share a :class:`~repro.md.neighborlist.NeighborList` and come in
two selectable kernels (see :mod:`repro.md.kernels`): the default
``"vectorized"`` kernel evaluates the whole candidate pair array in batched
NumPy and scatters per-particle forces with the bincount-based
:func:`~repro.md.kernels.accumulate_pair_forces`; the ``"reference"``
kernel walks the same pair array one pair at a time in plain Python — the
correctness oracle the equivalence tests compare against.  Both kernels
read the same candidate pairs from the one direct search, with open
boundaries (displacements are plain ``x[j] - x[i]``).

The vectorised body is written once over the *concatenated* candidate
pairs of every replica (:meth:`NeighborList.stacked_pairs`): one pass of
array arithmetic over the flattened ``(R*N, 3)`` arrays, with "one system,
one neighbour list" as its R = 1 case.  Whether there is a replica axis is
decided in the shared helpers — the pair gather, :func:`_per_particle` and
:func:`_segment_sums` — never in a term.  Replica ``r`` of a stack is
bit-identical to the solo evaluation of its rows because the within-cutoff
filtered pair sequence of any valid Verlet list is the same sorted set,
the expressions are elementwise, the scatter keeps each slot's solo order,
and each replica's energy is the in-order sum of its own pairs (one
bincount keyed on the pair's replica, a solo system its one-replica
case).

The Debye-Hueckel term stands in for the explicit water + ions of the
paper's all-atom system: at physiological (1 M KCl, the standard hemolysin
experiment buffer) ionic strength the Debye length is ~3 A, so screened
Coulomb with a short cutoff captures the relevant DNA-pore electrostatics.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import COULOMB_CONSTANT
from .kernels import (
    Energy,
    accumulate_pair_forces,
    no_energy,
    per_replica,
    validate_kernel,
)
from .neighborlist import NeighborList

__all__ = ["LennardJonesForce", "WCAForce", "DebyeHuckelForce", "COULOMB_CONSTANT"]


def _per_particle(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Bind a per-particle parameter table: ``table_for(positions)`` is the
    table indexed like the flattened particle axis of ``positions`` —
    itself, or one copy per replica of a stack, tiled once per replica
    count."""
    tiled = functools.cache(functools.partial(np.tile, table))

    def table_for(positions: np.ndarray) -> np.ndarray:
        return table if positions.ndim == 2 else tiled(positions.shape[0])

    return table_for


def _segment_sums(
    values: np.ndarray, slots: np.ndarray, positions: np.ndarray
) -> Energy:
    """Each replica's sum of its per-pair ``values``.

    ``slots`` holds one flattened particle slot ``r*N + i`` per pair, so
    ``slots // N`` is the pair's replica.  One ``np.bincount`` keyed on it
    sums every replica's pairs in pair order; a solo system is its
    one-replica case, so each replica's energy is bit-identical to a solo
    evaluation.
    """
    sums = np.bincount(slots // positions.shape[-2], weights=values,
                       minlength=math.prod(positions.shape[:-2]))
    return float(sums[0]) if positions.ndim == 2 else sums


class LennardJonesForce:
    """Per-type Lennard-Jones with Lorentz-Berthelot combining rules.

    ``U = 4 eps [(sigma/r)^12 - (sigma/r)^6]``, truncated and shifted at the
    cutoff so the energy is continuous (forces are left truncated, standard
    for CG models).

    Parameters
    ----------
    types:
        ``(n,)`` integer particle types indexing the parameter tables.
    epsilon, sigma:
        ``(ntypes,)`` per-type well depths (kcal/mol) and diameters (A).
    cutoff:
        Interaction cutoff in A.
    kernel:
        ``"vectorized"`` (default) or ``"reference"``; see
        :mod:`repro.md.kernels`.
    """

    stackable = True

    def __init__(
        self,
        types: np.ndarray,
        epsilon: np.ndarray,
        sigma: np.ndarray,
        cutoff: float,
        kernel: str = "vectorized",
    ) -> None:
        eps = np.asarray(epsilon, dtype=np.float64)
        sig = np.asarray(sigma, dtype=np.float64)
        if eps.ndim != 1 or eps.shape != sig.shape:
            raise ConfigurationError("epsilon and sigma must be 1-D and same length")
        if np.any(eps < 0.0) or np.any(sig <= 0.0):
            raise ConfigurationError("epsilon must be >= 0 and sigma > 0")
        t = np.asarray(types, dtype=np.int64)
        if t.max(initial=0) >= eps.shape[0]:
            raise ConfigurationError("particle type exceeds parameter table")
        self.kernel = validate_kernel(kernel)
        # Precompute combined pair tables (Lorentz-Berthelot).
        self._eps_table = np.sqrt(eps[:, None] * eps[None, :])
        self._sig_table = 0.5 * (sig[:, None] + sig[None, :])
        self._types = t
        self._types_at = _per_particle(t)
        self.cutoff = float(cutoff)
        self._cut2 = self.cutoff**2
        self.neighbor_list = NeighborList(cutoff)
        # Per-pair-type energy shift at the cutoff (continuity).
        sr6 = (self._sig_table / self.cutoff) ** 6
        self._shift_table = 4.0 * self._eps_table * (sr6**2 - sr6)

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        if self.kernel == "reference":
            return per_replica(self._compute_reference, positions, forces)
        i, j = self.neighbor_list.stacked_pairs(positions)
        if i.size == 0:
            return no_energy(positions)
        flat = positions.reshape(-1, 3)
        dr = flat[j] - flat[i]
        r2 = np.einsum("ij,ij->i", dr, dr)
        within = r2 < self._cut2
        if not np.any(within):
            return no_energy(positions)
        i, j, dr, r2 = i[within], j[within], dr[within], r2[within]
        types = self._types_at(positions)
        ti, tj = types[i], types[j]
        eps = self._eps_table[ti, tj]
        sig = self._sig_table[ti, tj]
        inv_r2 = 1.0 / r2
        sr2 = sig**2 * inv_r2
        sr6 = sr2 * sr2 * sr2
        sr12 = sr6 * sr6
        energy = _segment_sums(
            4.0 * eps * (sr12 - sr6) - self._shift_table[ti, tj], i, positions)
        # |F| * r = 24 eps (2 sr12 - sr6); divide by r^2 for dr coefficient.
        coeff = 24.0 * eps * (2.0 * sr12 - sr6) * inv_r2
        fij = dr * coeff[:, None]
        accumulate_pair_forces(forces.reshape(-1, 3), i, j, fij)
        return energy


    def _compute_reference(self, positions: np.ndarray, forces: np.ndarray) -> float:
        """Per-pair Python loop over the same candidate pairs (oracle)."""
        pi, pj = self.neighbor_list.pairs(positions)
        energy = 0.0
        for i, j in zip(pi.tolist(), pj.tolist()):
            dr = positions[j] - positions[i]
            r2 = float(dr @ dr)
            if r2 >= self._cut2:
                continue
            ti, tj = self._types[i], self._types[j]
            eps = float(self._eps_table[ti, tj])
            sig = float(self._sig_table[ti, tj])
            sr2 = sig * sig / r2
            sr6 = sr2 * sr2 * sr2
            sr12 = sr6 * sr6
            energy += 4.0 * eps * (sr12 - sr6) - float(self._shift_table[ti, tj])
            coeff = 24.0 * eps * (2.0 * sr12 - sr6) / r2
            fij = dr * coeff
            forces[j] += fij
            forces[i] -= fij
        return energy


class WCAForce(LennardJonesForce):
    """Weeks-Chandler-Andersen purely repulsive excluded volume.

    A Lennard-Jones potential cut at its minimum ``2^(1/6) sigma`` and
    shifted up by ``eps`` so it is zero at the cutoff — the usual CG-polymer
    excluded-volume term.  Implemented by reusing the LJ machinery with a
    per-pair cutoff at the potential minimum.
    """

    def __init__(
        self,
        types: np.ndarray,
        epsilon: np.ndarray,
        sigma: np.ndarray,
        kernel: str = "vectorized",
    ) -> None:
        sig = np.asarray(sigma, dtype=np.float64)
        cutoff = float(2.0 ** (1.0 / 6.0) * sig.max())
        super().__init__(types, epsilon, sigma, cutoff, kernel=kernel)
        # WCA: per-pair cutoff at 2^(1/6) sigma_ij and shift +eps_ij.
        self._wca_cut2 = (2.0 ** (1.0 / 3.0)) * self._sig_table**2

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        if self.kernel == "reference":
            return per_replica(self._compute_reference, positions, forces)
        i, j = self.neighbor_list.stacked_pairs(positions)
        if i.size == 0:
            return no_energy(positions)
        flat = positions.reshape(-1, 3)
        dr = flat[j] - flat[i]
        r2 = np.einsum("ij,ij->i", dr, dr)
        types = self._types_at(positions)
        ti, tj = types[i], types[j]
        within = r2 < self._wca_cut2[ti, tj]
        if not np.any(within):
            return no_energy(positions)
        i, j, dr, r2 = i[within], j[within], dr[within], r2[within]
        ti, tj = ti[within], tj[within]
        eps = self._eps_table[ti, tj]
        sig = self._sig_table[ti, tj]
        inv_r2 = 1.0 / r2
        sr2 = sig**2 * inv_r2
        sr6 = sr2 * sr2 * sr2
        sr12 = sr6 * sr6
        energy = _segment_sums(4.0 * eps * (sr12 - sr6) + eps, i, positions)
        coeff = 24.0 * eps * (2.0 * sr12 - sr6) * inv_r2
        fij = dr * coeff[:, None]
        accumulate_pair_forces(forces.reshape(-1, 3), i, j, fij)
        return energy


    def _compute_reference(self, positions: np.ndarray, forces: np.ndarray) -> float:
        """Per-pair Python loop with the WCA per-pair cutoff (oracle)."""
        pi, pj = self.neighbor_list.pairs(positions)
        energy = 0.0
        for i, j in zip(pi.tolist(), pj.tolist()):
            dr = positions[j] - positions[i]
            r2 = float(dr @ dr)
            ti, tj = self._types[i], self._types[j]
            if r2 >= float(self._wca_cut2[ti, tj]):
                continue
            eps = float(self._eps_table[ti, tj])
            sig = float(self._sig_table[ti, tj])
            sr2 = sig * sig / r2
            sr6 = sr2 * sr2 * sr2
            sr12 = sr6 * sr6
            energy += 4.0 * eps * (sr12 - sr6) + eps
            coeff = 24.0 * eps * (2.0 * sr12 - sr6) / r2
            fij = dr * coeff
            forces[j] += fij
            forces[i] -= fij
        return energy


class DebyeHuckelForce:
    """Screened Coulomb interaction ``U = C q_i q_j exp(-r/lambda_D)/(eps_r r)``.

    Parameters
    ----------
    charges:
        ``(n,)`` charges in elementary-charge units.
    exclusions:
        Bonded pairs to skip.
    kernel:
        ``"vectorized"`` (default) or ``"reference"``; see
        :mod:`repro.md.kernels`.
    """

    stackable = True

    #: Screening length in A (about 3 A at 1 M monovalent salt).
    DEBYE_LENGTH = 3.07
    #: Relative dielectric constant of the implicit solvent (water).
    DIELECTRIC = 78.5
    #: Cutoff in A; energies are truncated (exp screening makes the
    #: discontinuity negligible beyond a few Debye lengths).
    CUTOFF = 12.0

    def __init__(
        self,
        charges: np.ndarray,
        exclusions: Optional[Set[Tuple[int, int]]] = None,
        kernel: str = "vectorized",
    ) -> None:
        self.kernel = validate_kernel(kernel)
        self._q = np.asarray(charges, dtype=np.float64)
        self._q_at = _per_particle(self._q)
        self._kappa = 1.0 / self.DEBYE_LENGTH
        self._prefactor = COULOMB_CONSTANT / self.DIELECTRIC
        self.cutoff = self.CUTOFF
        self._cut2 = self.cutoff**2
        self.neighbor_list = NeighborList(self.CUTOFF, exclusions=exclusions)

    def compute(self, positions: np.ndarray, forces: np.ndarray) -> Energy:
        if self.kernel == "reference":
            return per_replica(self._compute_reference, positions, forces)
        i, j = self.neighbor_list.stacked_pairs(positions)
        if i.size == 0:
            return no_energy(positions)
        flat = positions.reshape(-1, 3)
        dr = flat[j] - flat[i]
        r2 = np.einsum("ij,ij->i", dr, dr)
        within = r2 < self._cut2
        if not np.any(within):
            return no_energy(positions)
        i, j, dr, r2 = i[within], j[within], dr[within], r2[within]
        q = self._q_at(positions)
        qq = q[i] * q[j]
        nonzero = qq != 0.0
        if not np.any(nonzero):
            return no_energy(positions)
        i, j, dr, r2, qq = i[nonzero], j[nonzero], dr[nonzero], r2[nonzero], qq[nonzero]
        r = np.sqrt(r2)
        u = self._prefactor * qq * np.exp(-self._kappa * r) / r
        energy = _segment_sums(u, i, positions)
        # F_j = u * (1/r + kappa) * unit(dr) ... sign: repulsive for like charges.
        coeff = u * (1.0 / r + self._kappa) / r
        fij = dr * coeff[:, None]
        accumulate_pair_forces(forces.reshape(-1, 3), i, j, fij)
        return energy


    def _compute_reference(self, positions: np.ndarray, forces: np.ndarray) -> float:
        """Per-pair Python loop over the same candidate pairs (oracle)."""
        pi, pj = self.neighbor_list.pairs(positions)
        energy = 0.0
        for i, j in zip(pi.tolist(), pj.tolist()):
            qq = float(self._q[i] * self._q[j])
            if qq == 0.0:
                continue
            dr = positions[j] - positions[i]
            r2 = float(dr @ dr)
            if r2 >= self._cut2:
                continue
            r = math.sqrt(r2)
            u = self._prefactor * qq * math.exp(-self._kappa * r) / r
            energy += u
            coeff = u * (1.0 / r + self._kappa) / r
            fij = dr * coeff
            forces[j] += fij
            forces[i] -= fij
        return energy
