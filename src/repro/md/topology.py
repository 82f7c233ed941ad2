"""Bonded topology: bonds, angles and exclusions for the CG force field.

A :class:`Topology` is immutable once built (arrays are set at construction);
the builder pattern (:class:`TopologyBuilder`) accumulates terms while a
molecule is being constructed (see :mod:`repro.pore.dna`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Topology", "TopologyBuilder"]


class Topology:
    """Container for bonded terms referencing particle indices.

    Attributes
    ----------
    bonds:
        ``(nb, 2)`` int array of bonded particle index pairs.
    bond_params:
        ``(nb, 2)`` float array of per-bond ``(k, r0)`` (or FENE ``(k, rmax)``)
        parameters — the interpretation belongs to the force term.
    angles:
        ``(na, 3)`` int array of angle triplets ``(i, j, k)`` with ``j`` the
        vertex.
    angle_params:
        ``(na, 2)`` float array of ``(k_theta, theta0)`` per angle.
    """

    def __init__(
        self,
        n_particles: int,
        bonds: Optional[np.ndarray] = None,
        bond_params: Optional[np.ndarray] = None,
        angles: Optional[np.ndarray] = None,
        angle_params: Optional[np.ndarray] = None,
    ) -> None:
        if n_particles <= 0:
            raise ConfigurationError("topology needs a positive particle count")
        self.n_particles = int(n_particles)

        self.bonds = self._index_array(bonds, 2, "bonds")
        self.bond_params = self._param_array(bond_params, self.bonds.shape[0], "bond_params")
        self.angles = self._index_array(angles, 3, "angles")
        self.angle_params = self._param_array(angle_params, self.angles.shape[0], "angle_params")

        for name, arr in (("bonds", self.bonds), ("angles", self.angles)):
            if arr.size and (arr.min() < 0 or arr.max() >= n_particles):
                raise ConfigurationError(f"{name} reference particles outside [0, {n_particles})")
        if self.bonds.size:
            if np.any(self.bonds[:, 0] == self.bonds[:, 1]):
                raise ConfigurationError("bond connecting a particle to itself")

    @staticmethod
    def _index_array(arr: Optional[np.ndarray], width: int, name: str) -> np.ndarray:
        if arr is None:
            return np.zeros((0, width), dtype=np.intp)
        out = np.ascontiguousarray(arr, dtype=np.intp)
        if out.ndim != 2 or out.shape[1] != width:
            raise ConfigurationError(f"{name} must be (n, {width}), got {out.shape}")
        return out

    @staticmethod
    def _param_array(arr: Optional[np.ndarray], rows: int, name: str) -> np.ndarray:
        if arr is None:
            if rows:
                raise ConfigurationError(f"{name} required when terms are present")
            return np.zeros((0, 2), dtype=np.float64)
        out = np.ascontiguousarray(arr, dtype=np.float64)
        if out.shape != (rows, 2):
            raise ConfigurationError(f"{name} must be ({rows}, 2), got {out.shape}")
        return out

    @property
    def n_bonds(self) -> int:
        return self.bonds.shape[0]

    @property
    def n_angles(self) -> int:
        return self.angles.shape[0]

    def exclusion_pairs(self) -> set[Tuple[int, int]]:
        """Set of ordered ``(i, j)`` pairs (i < j) excluded from nonbonded
        interactions: 1-2 (bonded) and 1-3 (angle end points)."""
        excl: set[Tuple[int, int]] = set()
        for i, j in self.bonds:
            excl.add((min(int(i), int(j)), max(int(i), int(j))))
        for i, _j, k in self.angles:
            excl.add((min(int(i), int(k)), max(int(i), int(k))))
        return excl

    def merged_with(self, other: "Topology", offset: int) -> "Topology":
        """Concatenate another topology whose particle indices start at
        ``offset`` in the combined system."""
        n_total = max(self.n_particles, offset + other.n_particles)
        bonds = np.vstack([self.bonds, other.bonds + offset]) if (self.n_bonds or other.n_bonds) else None
        bond_params = (
            np.vstack([self.bond_params, other.bond_params])
            if (self.n_bonds or other.n_bonds)
            else None
        )
        angles = np.vstack([self.angles, other.angles + offset]) if (self.n_angles or other.n_angles) else None
        angle_params = (
            np.vstack([self.angle_params, other.angle_params])
            if (self.n_angles or other.n_angles)
            else None
        )
        return Topology(n_total, bonds, bond_params, angles, angle_params)


class TopologyBuilder:
    """Accumulates bonds/angles then freezes them into a :class:`Topology`."""

    def __init__(self, n_particles: int) -> None:
        self.n_particles = n_particles
        self._bonds: list[tuple[int, int]] = []
        self._bond_params: list[tuple[float, float]] = []
        self._angles: list[tuple[int, int, int]] = []
        self._angle_params: list[tuple[float, float]] = []

    def add_bond(self, i: int, j: int, k: float, r0: float) -> "TopologyBuilder":
        """Add a two-body term with stiffness ``k`` and reference length ``r0``."""
        self._bonds.append((i, j))
        self._bond_params.append((k, r0))
        return self

    def add_angle(self, i: int, j: int, k: int, k_theta: float, theta0: float) -> "TopologyBuilder":
        """Add a three-body angle term with vertex ``j``."""
        self._angles.append((i, j, k))
        self._angle_params.append((k_theta, theta0))
        return self

    def add_chain(self, indices: Iterable[int], k: float, r0: float) -> "TopologyBuilder":
        """Bond consecutive indices into a linear chain."""
        idx = list(indices)
        for a, b in zip(idx, idx[1:]):
            self.add_bond(a, b, k, r0)
        return self

    def build(self) -> Topology:
        bonds = np.array(self._bonds, dtype=np.intp) if self._bonds else None
        bparams = np.array(self._bond_params, dtype=np.float64) if self._bonds else None
        angles = np.array(self._angles, dtype=np.intp) if self._angles else None
        aparams = np.array(self._angle_params, dtype=np.float64) if self._angles else None
        return Topology(self.n_particles, bonds, bparams, angles, aparams)
