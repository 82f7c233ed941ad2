"""Hot-path kernel selection and the shared scatter-add primitive.

Every pair/bonded force term offers two interchangeable implementations,
selected by a ``kernel=`` constructor argument:

``"vectorized"`` (default)
    Batched NumPy over the whole pair/bond array: one pass of array
    arithmetic plus a :func:`scatter_add` accumulation.  This is the
    production hot path the benchmarks time.

``"reference"``
    A per-pair Python loop written for obviousness, not speed — scalar
    math, one pair at a time, in pair-array order.  It is the correctness
    oracle the equivalence tests compare the vectorized kernels against.

Replica stacking is *not* a third kernel: the vectorised body of every
term is written over an optional leading replica axis, so ``(N, 3)``
positions and an ``(R, N, 3)`` stack (see :mod:`repro.md.batch`) run the
same lines.  The shape decisions live in the helpers below, never in a
term: :func:`scatter_add` flattens whatever precedes the particle axis
(slot ``r*N + i``), so one bincount pass accumulates every replica in the
per-replica summation order; :func:`weighted_sums` reduces each replica's
row with the solo ``np.dot``; :func:`per_replica` runs a body that only
understands ``(N, 3)`` — the ``"reference"`` loops, a user's own term —
once per replica.

Equivalence contract (see ``tests/test_md_kernels.py``): both kernels see
the *same* candidate pair arrays and evaluate the *same* expressions, but
the vectorized path accumulates per-particle forces in index order
(:func:`scatter_add`) while the reference path accumulates in pair order.
Floating-point addition is not associative, so results agree to a relative
tolerance of ~1e-12 (documented tolerance), not bit-for-bit.

:func:`scatter_add` replaces ``np.add.at``: ``np.bincount`` with weights
compiles to a tight C loop and is several times faster than the ufunc
``at`` path for the pair counts this engine produces.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "KERNELS",
    "validate_kernel",
    "scatter_add",
    "accumulate_pair_forces",
    "weighted_sums",
    "no_energy",
    "per_replica",
]

#: What a force term returns: a float for ``(N, 3)`` positions, an ``(R,)``
#: array (one energy per replica) for an ``(R, N, 3)`` stack.
Energy = Union[float, np.ndarray]

#: Names accepted by every ``kernel=`` switch.
KERNELS: tuple = ("vectorized", "reference")


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` if it names a known implementation, else raise."""
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; choose from {KERNELS}"
        )
    return kernel


def scatter_add(out: np.ndarray, idx: np.ndarray, contrib: np.ndarray) -> None:
    """Accumulate ``contrib[..., k, :]`` into ``out[..., idx[k], :]``
    (duplicate-safe).

    ``out`` is ``(..., n, d)``, ``idx`` is ``(m,)`` integer (shared by every
    replica), ``contrib`` is ``(..., m, d)``.  Equivalent to ``np.add.at``
    up to floating-point summation order, but implemented with
    per-component ``np.bincount`` — substantially faster for the large
    ``m`` of nonbonded pair arrays.  Leading replica axes are flattened
    into the particle axis (slot ``r*n + idx``), so each replica's slots
    receive their contributions in exactly the ``(n, d)`` bincount order:
    replica ``r`` of the result is bit-identical to
    ``scatter_add(out[r], idx, contrib[r])``.  A stacked ``out`` must be
    C-contiguous (the engine's force buffers are).
    """
    if idx.size == 0:
        return
    n, d = out.shape[-2:]
    if out.ndim > 2:
        idx = (np.arange(out.size // (n * d))[:, None] * n + idx).ravel()
        out = out.reshape(-1, d)
        contrib = contrib.reshape(-1, d)
    for c in range(d):
        out[:, c] += np.bincount(idx, weights=contrib[:, c],
                                 minlength=out.shape[0])


def accumulate_pair_forces(
    forces: np.ndarray, i: np.ndarray, j: np.ndarray, fij: np.ndarray
) -> None:
    """Newton's-third-law accumulation: ``forces[j] += fij; forces[i] -= fij``
    (over an optional leading replica axis, see :func:`scatter_add`)."""
    scatter_add(forces, j, fij)
    scatter_add(forces, i, -fij)


def weighted_sums(weights: np.ndarray, values: np.ndarray) -> Energy:
    """``np.dot(weights, row)`` over the last axis of ``values``: a float
    for one row, an ``(R,)`` array for a stack of rows.

    Each replica's row is reduced by the same BLAS call as the solo row,
    on C-contiguous memory: a row left strided by the gather that produced
    it would send BLAS down its strided path, which sums in another order
    (1 ulp apart) — that, not the expression, is what makes the per-replica
    energies bit-identical to a solo evaluation.
    """
    if values.ndim == 1:
        return float(np.dot(weights, values))
    return np.array([np.dot(weights, row)
                     for row in np.ascontiguousarray(values)])


def no_energy(positions: np.ndarray) -> Energy:
    """The energy of a term with nothing to evaluate, in the shape the
    positions call for (``0.0`` or ``(R,)`` zeros)."""
    return 0.0 if positions.ndim == 2 else np.zeros(positions.shape[:-2])


def per_replica(
    compute: Callable[[np.ndarray, np.ndarray], float],
    positions: np.ndarray,
    forces: np.ndarray,
) -> Energy:
    """Evaluate a body that only understands ``(N, 3)``: directly on a
    solo system, once per replica (on that replica's rows of ``positions``
    and ``forces``) on a stack."""
    if positions.ndim == 2:
        return compute(positions, forces)
    return np.array([compute(x, f) for x, f in zip(positions, forces)])
