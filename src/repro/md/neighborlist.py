"""Cell-list based Verlet neighbor list for short-range nonbonded forces.

The list is rebuilt lazily: positions at the last build are remembered and the
list is only reconstructed once some particle has moved more than half the
skin distance, the standard Verlet-skin criterion.  Pair search uses a hashed
cell list (``O(n)``) rather than the ``O(n^2)`` direct double loop, although a
direct fallback is kept for tiny systems where cells cost more than they save.

Two cell-search kernels are available (see :mod:`repro.md.kernels`):

* ``"vectorized"`` (default) — loop-free enumeration: particles are sorted
  by cell key once, then all intra-cell and forward-neighbor-cell pairs are
  generated with ragged ``arange``/``repeat`` arithmetic over a constant
  14-entry stencil.  No per-cell Python loop.
* ``"reference"`` — the original dict-of-cells implementation, one Python
  iteration per occupied cell.  Kept as the correctness oracle; both
  kernels return *identical* pair arrays (the final sorted-unique pair-key
  dedup fixes the ordering), so the switch is bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from .kernels import validate_kernel

__all__ = ["NeighborList"]

# Below this size the O(n^2) direct pair enumeration beats building cells.
_DIRECT_THRESHOLD = 64

#: The 13 strictly-forward neighbor offsets of the 27-cell stencil, in the
#: lexicographic order (dx, dy, dz) > (0, 0, 0).
_FORWARD_STENCIL: Tuple[Tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)


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
        box: Optional[np.ndarray] = None,
        kernel: str = "vectorized",
    ) -> None:
        if cutoff <= 0.0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        if skin < 0.0:
            raise ConfigurationError(f"skin must be non-negative, got {skin}")
        self.kernel = validate_kernel(kernel)
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self._reach = self.cutoff + self.skin
        self._exclusions = frozenset(exclusions or ())
        if box is not None:
            b = np.asarray(box, dtype=np.float64)
            if b.shape != (3,) or np.any(b <= 0.0):
                raise ConfigurationError("box must be 3 positive lengths")
            if np.any(b < 2.0 * self._reach):
                raise ConfigurationError(
                    "box must exceed 2*(cutoff+skin) for minimum image"
                )
            self.box: Optional[np.ndarray] = b
        else:
            self.box = None
        self._pairs_i: Optional[np.ndarray] = None
        self._pairs_j: Optional[np.ndarray] = None
        self._ref_positions: Optional[np.ndarray] = None
        self._replicas: List["NeighborList"] = []  # one clone per stack row
        self._stack_ref: Optional[np.ndarray] = None  # their references, stacked
        self._stack_pairs = None  # their pairs, as of the last rebuild of any
        self.n_builds = 0  # instrumentation for tests/benchmarks
        self.last_pair_count = 0  # candidate pairs at the last build

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
            box=None if self.box is None else self.box.copy(),
            kernel=self.kernel,
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

    def minimum_image(self, dr: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention (no-op without a box)."""
        if self.box is None:
            return dr
        return dr - self.box * np.round(dr / self.box)

    def _build(self, positions: np.ndarray) -> None:
        n = positions.shape[0]
        if self.box is not None:
            # Periodic systems use the direct minimum-image path — exact
            # and adequate at CG particle counts (cells would need ghost
            # images; this engine's periodic use cases are small).
            i, j = np.triu_indices(n, k=1)
            dr = self.minimum_image(positions[j] - positions[i])
            within = np.einsum("ij,ij->i", dr, dr) <= self._reach**2
            i, j = i[within], j[within]
        elif n <= _DIRECT_THRESHOLD:
            i, j = np.triu_indices(n, k=1)
            dr = positions[j] - positions[i]
            within = np.einsum("ij,ij->i", dr, dr) <= self._reach**2
            i, j = i[within], j[within]
        elif self.kernel == "reference":
            i, j = self._cell_pairs_reference(positions)
        else:
            i, j = self._cell_pairs_vectorized(positions)
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
        self.last_pair_count = int(self._pairs_i.size)

    def _cell_pairs_vectorized(
        self, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Loop-free cell-list pair enumeration (open boundaries).

        Particles are binned once, sorted by linear cell key, and all pairs
        are generated with ragged ``repeat``/``arange`` arithmetic: intra-cell
        pairs from each particle to the later slots of its own cell, and
        inter-cell pairs as block cross-products against the 13 forward
        stencil cells (matched by 3-D coordinates, so there is no key
        aliasing at the grid boundary).  The only Python-level loop is the
        constant 13-entry stencil.
        """
        n = positions.shape[0]
        reach = self._reach
        lo = positions.min(axis=0)
        cell = np.floor((positions - lo) / reach).astype(np.int64)
        dims = cell.max(axis=0) + 1
        key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        # Unique occupied cells: sorted keys, slice starts and occupancies.
        ukey, starts, counts = np.unique(
            sorted_key, return_index=True, return_counts=True
        )
        ucoord = cell[order[starts]]  # (ncells, 3) coordinates per unique cell

        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []

        # Intra-cell pairs: sorted slot s pairs with every later slot of its
        # own cell.  m[s] partners each, ragged-arange to enumerate them.
        cell_of_slot = np.repeat(np.arange(ukey.size), counts)
        slot = np.arange(n)
        m = (starts + counts)[cell_of_slot] - slot - 1
        total = int(m.sum())
        if total:
            gi = np.repeat(slot, m)
            offset = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
            gj = gi + 1 + offset
            out_i.append(order[gi])
            out_j.append(order[gj])

        # Inter-cell pairs: for each forward stencil offset, match occupied
        # cells to their (coordinate-valid) neighbor cells, then emit the
        # full cross product of the two member blocks.
        for dx, dy, dz in _FORWARD_STENCIL:
            nc = ucoord + (dx, dy, dz)
            valid = np.all((nc >= 0) & (nc < dims), axis=1)
            if not np.any(valid):
                continue
            src = np.flatnonzero(valid)
            nk = (nc[src, 0] * dims[1] + nc[src, 1]) * dims[2] + nc[src, 2]
            pos = np.searchsorted(ukey, nk)
            hit = (pos < ukey.size) & (ukey[np.minimum(pos, ukey.size - 1)] == nk)
            if not np.any(hit):
                continue
            a, b = src[hit], pos[hit]  # unique-cell indices: a -> b
            rep = counts[a] * counts[b]
            total = int(rep.sum())
            t = np.arange(total) - np.repeat(np.cumsum(rep) - rep, rep)
            bcnt = np.repeat(counts[b], rep)
            ai = np.repeat(starts[a], rep) + t // bcnt
            bj = np.repeat(starts[b], rep) + t % bcnt
            out_i.append(order[ai])
            out_j.append(order[bj])

        if not out_i:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        i = np.concatenate(out_i)
        j = np.concatenate(out_j)
        i2 = np.minimum(i, j)
        j2 = np.maximum(i, j)
        dr = positions[j2] - positions[i2]
        within = np.einsum("ij,ij->i", dr, dr) <= reach**2
        i2, j2 = i2[within], j2[within]
        # Sorted-unique pair keys: same dedup/ordering as the reference
        # kernel, so both kernels return identical arrays.
        nn = np.int64(n)
        pair_key = np.unique(i2.astype(np.int64) * nn + j2.astype(np.int64))
        return (pair_key // nn).astype(np.intp), (pair_key % nn).astype(np.intp)

    def _cell_pairs_reference(
        self, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hashed cell list pair enumeration (open boundaries), one Python
        iteration per occupied cell — the oracle for the vectorized kernel."""
        reach = self._reach
        lo = positions.min(axis=0)
        cell_idx = np.floor((positions - lo) / reach).astype(np.int64)
        dims = cell_idx.max(axis=0) + 1
        # Linear cell key; dims can be large for sparse systems but keys stay
        # well within int64 because coordinates are finite.
        key = (cell_idx[:, 0] * dims[1] + cell_idx[:, 1]) * dims[2] + cell_idx[:, 2]
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        # Group particle indices by cell.
        starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        ends = np.r_[starts[1:], sorted_key.size]
        cells: dict[int, np.ndarray] = {
            int(sorted_key[s]): order[s:e] for s, e in zip(starts, ends)
        }

        offsets = [
            (dx * dims[1] + dy) * dims[2] + dz
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
        ]
        half = offsets[len(offsets) // 2 + 1 :]  # strictly "forward" neighbor cells

        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []
        for ck, members in cells.items():
            # Pairs within the cell.
            if members.size > 1:
                a, b = np.triu_indices(members.size, k=1)
                out_i.append(members[a])
                out_j.append(members[b])
            # Pairs with forward neighbor cells.
            for off in half:
                other = cells.get(ck + int(off))
                if other is None:
                    continue
                gi = np.repeat(members, other.size)
                gj = np.tile(other, members.size)
                out_i.append(gi)
                out_j.append(gj)

        if not out_i:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        i = np.concatenate(out_i)
        j = np.concatenate(out_j)
        # Orient and distance-filter.
        swap = i > j
        i2 = np.where(swap, j, i)
        j2 = np.where(swap, i, j)
        dr = positions[j2] - positions[i2]
        within = (np.einsum("ij,ij->i", dr, dr) <= reach**2) & (i2 < j2)
        i2, j2 = i2[within], j2[within]
        # Key aliasing at the grid boundary can surface the same pair through
        # two different cell offsets; deduplicate via a combined pair key.
        n = np.int64(positions.shape[0])
        pair_key = np.unique(i2.astype(np.int64) * n + j2.astype(np.int64))
        return (pair_key // n).astype(np.intp), (pair_key % n).astype(np.intp)
