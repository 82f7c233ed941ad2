"""Synthetic task streams for the streaming-executor tests.

Sub-millisecond tasks whose descriptors and values are pure functions of
``(seed, index)``: the store, cursor and dead-letter layers dominate, which
is what those tests exercise — not the physics.  Plus the store descriptor
of a real pull, for tests that pin a driver's records to their keys.
"""

from typing import Iterator

import numpy as np

from repro.errors import SimulationError
from repro.rng import stream_for
from repro.smd.batched import DEFAULT_FORCE_SAMPLE_TIME, PAPER_CPU_HOURS_PER_NS
from repro.smd.protocol import PullingProtocol
from repro.smd.work import WorkEnsemble
from repro.store import pulling_task
from repro.workflow.streaming import StreamTask

def default_pulling_task(model, protocol, n_samples, seed_key, n_records=41):
    """The descriptor of one pull at the integration settings every entry
    point defaults to, spelled without the task plan."""
    return pulling_task(model, protocol, n_samples=n_samples,
                        n_records=n_records, seed_key=seed_key, dt=None,
                        force_sample_time=DEFAULT_FORCE_SAMPLE_TIME,
                        cpu_hours_per_ns=PAPER_CPU_HOURS_PER_NS)


#: Every synthetic task shares one protocol.
_PROTOCOL = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=2.0,
                            equilibration_ns=0.0)


def _synthetic_ensemble(seed: int, index: int) -> WorkEnsemble:
    """A tiny (2 replica, 3 record) ensemble, deterministic per index."""
    rng = stream_for(seed, "bench", "store", "task", index)
    works = np.zeros((2, 3))
    works[:, 1:] = rng.normal(5.0, 1.0, size=(2, 2)).cumsum(axis=1)
    positions = np.tile(np.array([0.0, 1.0, 2.0]), (2, 1))
    positions += rng.normal(0.0, 0.05, size=(2, 3))
    return WorkEnsemble(
        protocol=_PROTOCOL,
        displacements=np.array([0.0, 1.0, 2.0]),
        works=works,
        positions=positions,
        temperature=300.0,
        cpu_hours=0.0,
    )


def synthetic_stream(n_tasks: int, seed: int,
                     poisoned: frozenset = frozenset()
                     ) -> Iterator[StreamTask]:
    """Lazily yield ``n_tasks`` cheap streamed tasks.

    Two same-seed streams are interchangeable.  ``poisoned`` indices raise
    :class:`~repro.errors.SimulationError` on every attempt when computed.
    """
    for index in range(n_tasks):
        key = (seed, "bench", "store", "task", index)
        task = {
            "kind": "bench-store",
            "seed_key": list(key),
            "index": index,
        }

        def compute(index: int = index) -> WorkEnsemble:
            if index in poisoned:
                raise SimulationError(
                    f"bench permafail: task {index} is poisoned")
            return _synthetic_ensemble(seed, index)

        yield StreamTask(index=index, key=key, cell=("bench",), task=task,
                         compute=compute)
