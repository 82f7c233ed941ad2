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
into one slot index (``(r*N + i)*d + c``), so one bincount pass
accumulates every replica in the per-replica summation order (a term's
fixed index sets bind those slots once per shape, :func:`_bound_scatter`);
:func:`weighted_sums` sums each replica's row in term order with one
bincount, the solo row being its one-row case; :func:`per_replica` runs a
body that only understands ``(N, 3)`` — the ``"reference"`` loops, a
user's own term — once per replica.

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

import functools
import math
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


def _flat_slots(idx: np.ndarray, shape: tuple) -> np.ndarray:
    """The bins of ``out.ravel()`` that :func:`scatter_add` fills from
    ``idx`` for an ``out`` of ``shape``: ``(r*n + idx[k])*d + c``, listed in
    the ``(r, k, c)`` order of the matching ``contrib`` (a solo ``out`` is
    the one-replica case)."""
    n, d = shape[-2:]
    rows = np.arange(math.prod(shape[:-2]))[:, None] * n + idx
    return (rows[..., None] * d + np.arange(d)).ravel()


def _bincount_into(out: np.ndarray, slots: np.ndarray,
                   contrib: np.ndarray) -> None:
    out += np.bincount(slots, weights=contrib.ravel(),
                       minlength=out.size).reshape(out.shape)


def scatter_add(out: np.ndarray, idx: np.ndarray, contrib: np.ndarray) -> None:
    """Accumulate ``contrib[..., k, :]`` into ``out[..., idx[k], :]``
    (duplicate-safe).

    ``out`` is ``(..., n, d)``, ``idx`` is ``(m,)`` integer (shared by every
    replica), ``contrib`` is ``(..., m, d)``.  Equivalent to ``np.add.at``
    up to floating-point summation order, but implemented as one
    ``np.bincount`` over the flattened slot ``(r*n + idx[k])*d + c`` —
    substantially faster for the large ``m`` of nonbonded pair arrays.
    Every slot sums its contributions in ``k`` order and is then added to
    ``out`` by one ``+=``, so replica ``r`` of the result is bit-identical
    to ``scatter_add(out[r], idx, contrib[r])``.
    """
    if idx.size:
        _bincount_into(out, _flat_slots(idx, out.shape), contrib)


def _bound_scatter(idx: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """:func:`scatter_add` bound to a term's fixed index set (its bonds,
    angles, a field's particles): ``scatter(out, contrib)`` has the bits of
    ``scatter_add(out, idx, contrib)``, the flattened slots built once per
    ``out`` shape (one per replica count) instead of on every call."""
    slots_for = functools.cache(functools.partial(_flat_slots, idx))

    def scatter(out: np.ndarray, contrib: np.ndarray) -> None:
        if idx.size:
            _bincount_into(out, slots_for(out.shape), contrib)

    return scatter


def accumulate_pair_forces(
    forces: np.ndarray, i: np.ndarray, j: np.ndarray, fij: np.ndarray
) -> None:
    """Newton's-third-law accumulation: ``forces[j] += fij; forces[i] -= fij``
    (over an optional leading replica axis, see :func:`scatter_add`)."""
    scatter_add(forces, j, fij)
    scatter_add(forces, i, -fij)


@functools.cache
def _row_of(shape: tuple) -> np.ndarray:
    """The row of each entry of a C-ordered array of ``shape``, built once
    per shape."""
    return np.arange(math.prod(shape)) // shape[-1]


def weighted_sums(weights: np.ndarray, values: np.ndarray) -> Energy:
    """``sum(weights * values)`` over the last axis of ``values``: a float
    for one row, an ``(R,)`` array for a stack of rows.

    One ``np.bincount`` keyed on each term's row sums every row in term
    order; a solo row is its one-row case, so each replica's energy is
    bit-identical to a solo evaluation whatever the memory layout of
    ``values``.
    """
    terms = weights * values
    sums = np.bincount(_row_of(terms.shape), weights=terms.ravel(),
                       minlength=math.prod(terms.shape[:-1]))
    return float(sums[0]) if values.ndim == 1 else sums


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
