"""Deterministic random-number utilities.

Every stochastic component in the package accepts either a seed or a
:class:`numpy.random.Generator`.  These helpers normalize that choice and
provide independent child streams so that, e.g., each of the 72 batch-phase
simulations gets a statistically independent but reproducible stream.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["SeedLike", "as_generator", "as_seed_int", "spawn", "stream_for"]

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Passing an existing generator returns it unchanged (shared state);
    passing an int or ``None`` creates a fresh PCG64 generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def as_seed_int(seed: SeedLike) -> int:
    """Collapse any seed-like input to a deterministic base-seed integer.

    Components that key :func:`stream_for` streams off an integer (the
    campaign drivers) accept the full :data:`SeedLike` union through this
    helper: an int (or NumPy integer) passes through unchanged — so
    integer-seeded runs are bit-identical to the historical behaviour — a
    generator or seed sequence contributes one draw from its stream, and
    ``None`` yields fresh OS entropy.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    return int(as_generator(seed).integers(0, 2**63))


def spawn(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Create ``n`` independent child generators from a seed.

    Independence comes from :class:`numpy.random.SeedSequence` spawning, so
    children never overlap regardless of how many numbers each draws.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator's bit stream so spawning
        # from a generator is still deterministic w.r.t. its current state.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(n)]


def stream_for(base_seed: int, *labels: Union[int, str]) -> np.random.Generator:
    """Deterministic generator keyed by a base seed plus structured labels.

    Used to give names like ``("replica", 7, "kappa", 100)`` their own
    reproducible stream without coordinating a global spawn order.
    """
    entropy: list[int] = [int(base_seed) & 0xFFFFFFFF]
    for label in labels:
        if isinstance(label, str):
            h = 2166136261
            for ch in label.encode():
                h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
            entropy.append(h)
        else:
            entropy.append(int(label) & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
