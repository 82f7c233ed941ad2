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
    oracle the equivalence tests compare the vectorized kernels against,
    and the baseline ``python -m repro bench`` measures speedups over.

Replica batching is *not* a third kernel: a force term additionally offers
``compute_batched`` (see :mod:`repro.md.batch`), a method that evaluates
``(R, N, 3)`` stacked positions for all replicas per call.  The batched
scatter primitives below flatten the replica axis into the particle axis
(slot ``r*N + i``) so one bincount pass accumulates every replica with the
*same* per-replica summation order as :func:`scatter_add`, keeping batched
forces bit-identical to per-replica evaluation.

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

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "KERNELS",
    "validate_kernel",
    "scatter_add",
    "accumulate_pair_forces",
    "scatter_add_batched",
    "accumulate_pair_forces_batched",
]

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
    """Accumulate ``contrib[k]`` into ``out[idx[k]]`` (duplicate-safe).

    ``out`` is ``(n, d)``, ``idx`` is ``(m,)`` integer, ``contrib`` is
    ``(m, d)``.  Equivalent to ``np.add.at(out, idx, contrib)`` up to
    floating-point summation order, but implemented with per-component
    ``np.bincount`` — substantially faster for the large ``m`` of
    nonbonded pair arrays.
    """
    if idx.size == 0:
        return
    n = out.shape[0]
    for d in range(out.shape[1]):
        out[:, d] += np.bincount(idx, weights=contrib[:, d], minlength=n)


def accumulate_pair_forces(
    forces: np.ndarray, i: np.ndarray, j: np.ndarray, fij: np.ndarray
) -> None:
    """Newton's-third-law accumulation: ``forces[j] += fij; forces[i] -= fij``."""
    scatter_add(forces, j, fij)
    scatter_add(forces, i, -fij)


def scatter_add_batched(
    out: np.ndarray, idx: np.ndarray, contrib: np.ndarray
) -> None:
    """Replica-batched :func:`scatter_add`: one bincount pass for all replicas.

    ``out`` is ``(R, n, d)``, ``idx`` is ``(m,)`` shared across replicas,
    ``contrib`` is ``(R, m, d)``.  The replica axis is flattened into the
    particle axis (``r*n + idx``), so each replica's slots receive their
    contributions in exactly the per-replica bincount order — replica ``r``
    of the result is bit-identical to ``scatter_add(out[r], idx, contrib[r])``.
    ``out`` must be C-contiguous (the engine's force buffers are).
    """
    if idx.size == 0:
        return
    n_replicas, n, d = out.shape
    flat_idx = (
        np.arange(n_replicas, dtype=np.intp)[:, None] * n + idx[None, :]
    ).ravel()
    flat_out = out.reshape(n_replicas * n, d)
    flat_contrib = contrib.reshape(n_replicas * contrib.shape[1], d)
    scatter_add(flat_out, flat_idx, flat_contrib)


def accumulate_pair_forces_batched(
    forces: np.ndarray, i: np.ndarray, j: np.ndarray, fij: np.ndarray
) -> None:
    """Batched Newton's-third-law accumulation over ``(R, N, 3)`` forces."""
    scatter_add_batched(forces, j, fij)
    scatter_add_batched(forces, i, -fij)
