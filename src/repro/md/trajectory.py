"""Trajectory recording and lightweight observable tracking.

Frames are stored as copies (a trajectory must survive the simulation
mutating its live arrays).  Observables are scalar time series sampled at
the same cadence as frames or at their own stride.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import AnalysisError, ConfigurationError

__all__ = ["Frame", "Trajectory", "ObservableRecorder"]


class Frame:
    """A single saved configuration."""

    __slots__ = ("step", "time", "positions", "scalars")

    def __init__(self, step: int, time: float, positions: np.ndarray,
                 scalars: Optional[Dict[str, float]] = None) -> None:
        self.step = int(step)
        self.time = float(time)
        self.positions = np.array(positions, dtype=np.float64, copy=True)
        self.scalars = dict(scalars or {})


class Trajectory:
    """Ordered collection of :class:`Frame` objects with array accessors."""

    def __init__(self) -> None:
        self._frames: List[Frame] = []

    def append(self, frame: Frame) -> None:
        if self._frames and frame.step < self._frames[-1].step:
            raise ConfigurationError("frames must be appended in step order")
        self._frames.append(frame)

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, i: int) -> Frame:
        return self._frames[i]

    def __iter__(self):
        return iter(self._frames)

    @property
    def times(self) -> np.ndarray:
        """Frame times in ns."""
        return np.array([f.time for f in self._frames], dtype=np.float64)

    @property
    def steps(self) -> np.ndarray:
        return np.array([f.step for f in self._frames], dtype=np.int64)



class ObservableRecorder:
    """Samples named callables ``f(simulation) -> float`` every ``stride`` steps.

    Attached to the engine as a reporter; results are dense NumPy series.
    """

    def __init__(self, stride: int = 1) -> None:
        if stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")
        self.stride = int(stride)
        self._funcs: Dict[str, Callable] = {}
        self._values: Dict[str, List[float]] = {}
        self._times: List[float] = []

    def track(self, name: str, func: Callable) -> "ObservableRecorder":
        if name in self._funcs:
            raise ConfigurationError(f"observable {name!r} already tracked")
        self._funcs[name] = func
        self._values[name] = []
        return self

    def __call__(self, simulation) -> None:  # Reporter protocol
        if simulation.step_count % self.stride != 0:
            return
        self._times.append(simulation.time)
        for name, func in self._funcs.items():
            self._values[name].append(float(func(simulation)))

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times, dtype=np.float64)

    def series(self, name: str) -> np.ndarray:
        if name not in self._values:
            raise AnalysisError(f"unknown observable {name!r}")
        return np.array(self._values[name], dtype=np.float64)
