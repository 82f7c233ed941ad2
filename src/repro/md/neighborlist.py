"""Verlet neighbor list for short-range nonbonded forces.

The list is rebuilt lazily: positions at the last build are remembered and the
list is only reconstructed once some particle has moved more than half the
skin distance, the standard Verlet-skin criterion.  A build is the direct
search: every ``i < j`` pair from ``np.triu_indices``, kept when within
``cutoff + skin`` — ``O(n^2)``, which at the engine's bead counts (the CG
chains have 6–12 beads, with open boundaries) costs less than binning into
cells.  The pair arrays come out sorted by ``(i, j)``.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["NeighborList"]


class NeighborList:
    """Maintains candidate interaction pairs within ``cutoff + skin``.

    Parameters
    ----------
    cutoff:
        Interaction cutoff in angstrom (positive).
    skin:
        Verlet skin in angstrom; larger skins rebuild less often but yield
        more candidate pairs per force evaluation.
    exclusions:
        Set of ``(i, j)`` pairs (``i < j``) never returned (bonded pairs).
    """

    def __init__(
        self,
        cutoff: float,
        skin: float = 1.0,
        exclusions: Optional[Set[Tuple[int, int]]] = None,
    ) -> None:
        if cutoff <= 0.0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        if skin < 0.0:
            raise ConfigurationError(f"skin must be non-negative, got {skin}")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self._reach = self.cutoff + self.skin
        self._exclusions = frozenset(exclusions or ())
        self._pairs_i: Optional[np.ndarray] = None
        self._pairs_j: Optional[np.ndarray] = None
        self._ref_positions: Optional[np.ndarray] = None
        self._replicas: List["NeighborList"] = []  # one clone per stack row
        self._stack_ref: Optional[np.ndarray] = None  # their references, stacked
        self._stack_pairs = None  # their pairs, as of the last rebuild of any
        self.n_builds = 0  # instrumentation for tests/benchmarks

    # -- public API ----------------------------------------------------------

    def pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate pair index arrays ``(i, j)`` with ``i < j``.

        Rebuilds only when required by the skin criterion.  The returned
        arrays must be treated as read-only; they are reused between calls.
        """
        if self._moved(positions, self._ref_positions):
            self._build(positions)
        assert self._pairs_i is not None and self._pairs_j is not None
        return self._pairs_i, self._pairs_j

    def stacked_pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`pairs` over an optional leading replica axis.

        ``(N, 3)`` positions give this list's own pairs.  An ``(R, N, 3)``
        stack gives every replica's candidate pairs concatenated, replica
        by replica, as slots ``r*N + i`` of the flattened ``(R*N, 3)``
        position and force arrays — so the arithmetic that follows is the
        solo arithmetic over one longer pair array.  Each replica keeps its
        own :meth:`clone` of this list, with its own reference positions
        and lazy rebuild schedule; the skin test is made once over the
        stack, and while it fires for no replica the result is the cached one.
        """
        if positions.ndim == 2:
            return self.pairs(positions)
        n_replicas, n = positions.shape[:2]
        if len(self._replicas) != n_replicas:
            self._replicas = [self.clone() for _ in range(n_replicas)]
        stale = self._moved(positions, self._stack_ref)
        if stale.any():
            parts = [nl.pairs(x) if moved else (nl._pairs_i, nl._pairs_j)
                     for nl, x, moved in zip(self._replicas, positions, stale)]
            self._stack_ref = np.stack(
                [nl._ref_positions for nl in self._replicas])
            offset = np.repeat(np.arange(n_replicas, dtype=np.intp) * n,
                               [i.size for i, _ in parts])
            self._stack_pairs = (
                np.concatenate([i for i, _ in parts]) + offset,
                np.concatenate([j for _, j in parts]) + offset)
        return self._stack_pairs

    def invalidate(self) -> None:
        """Force a rebuild on the next :meth:`pairs` call — of this list
        and of every replica's clone (used after checkpoint restore, where
        positions jump discontinuously)."""
        self._ref_positions = None
        self._stack_ref = None
        for nl in self._replicas:
            nl.invalidate()

    def clone(self) -> "NeighborList":
        """A fresh list with the same parameters and no build state.

        A stack gives each replica its own clone so every replica keeps an
        independent lazy rebuild schedule.  Candidate-pair *results* are
        rebuild-schedule independent (any valid Verlet list filtered to the
        cutoff yields the same sorted pair set), so clones preserve
        bit-identity with per-replica execution.
        """
        return NeighborList(
            self.cutoff,
            skin=self.skin,
            exclusions=set(self._exclusions),
        )

    # -- internals -----------------------------------------------------------

    def _moved(self, positions: np.ndarray,
               reference: Optional[np.ndarray]) -> np.ndarray:
        """The skin criterion, per replica of a stack: has some particle
        moved more than half the skin from ``reference`` — or is there no
        such reference?  (Without particles, none has.)"""
        if (reference is None or reference.shape != positions.shape
                or self.skin == 0.0):
            return np.ones(positions.shape[:-2], dtype=bool)
        delta = positions - reference
        disp2 = np.einsum("...ij,...ij->...i", delta, delta)
        return disp2.max(axis=-1, initial=0.0) > (0.5 * self.skin) ** 2

    def _build(self, positions: np.ndarray) -> None:
        i, j = np.triu_indices(positions.shape[0], k=1)
        dr = positions[j] - positions[i]
        within = np.einsum("ij,ij->i", dr, dr) <= self._reach**2
        i, j = i[within], j[within]
        if self._exclusions:
            keep = np.fromiter(
                ((int(a), int(b)) not in self._exclusions for a, b in zip(i, j)),
                dtype=bool,
                count=i.size,
            )
            i, j = i[keep], j[keep]
        self._pairs_i = np.ascontiguousarray(i, dtype=np.intp)
        self._pairs_j = np.ascontiguousarray(j, dtype=np.intp)
        self._ref_positions = positions.copy()
        self.n_builds += 1
