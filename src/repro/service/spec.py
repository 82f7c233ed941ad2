"""Campaign specs: the JSON documents clients submit to the service.

A spec is the *complete* description of a study campaign — parameter grid,
ensemble sizing, task decomposition, seed, estimator — normalized into a
canonical dict whose SHA-256 (:attr:`CampaignSpec.fingerprint`) is the
service's coalescing key: two clients submitting byte-different JSON that
normalizes to the same spec are, by construction, asking for the same
computation, and the runner serves them from one run (and one set of
store records).

The spec layer is deliberately strict.  Unknown fields are rejected rather
than ignored — a typo like ``"sample_per_task"`` silently falling back to
a default would change the physics a client *thinks* it requested — and
every numeric field is range-checked here so the runner and HTTP layers
never see a malformed campaign.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..errors import SpecError

__all__ = ["SPEC_SCHEMA", "CampaignSpec"]

#: Version tag every normalized spec carries (and is fingerprinted over),
#: so a future incompatible spec revision can never collide with v1 runs.
SPEC_SCHEMA = "repro.service.spec/v1"

#: Values spec v1 froze for its ``kernel`` field.  The field stays on the
#: wire — validated, echoed, outside the fingerprint — so every persisted
#: campaign record and transcript stays valid, but nothing reads it: the
#: execution layout is the code's decision.
_V1_KERNELS = ("vectorized", "reference", "batched")


#: Field name -> (type, default).  ``None`` default means required.
_FIELDS: Dict[str, Tuple[type, Any]] = {
    "kind": (str, "study"),
    "kappas": (list, None),
    "velocities": (list, None),
    "n_samples": (int, 4),
    "samples_per_task": (int, 2),
    "n_records": (int, 21),
    "distance": (float, 10.0),
    "start_z": (float, -5.0),
    "equilibration_ns": (float, 0.05),
    "seed": (int, 2005),
    "estimator": (str, "exponential"),
    "kernel": (str, "vectorized"),
    "window": (int, 16),
}


def _finite(name: str, value: Any) -> float:
    """``json.loads`` accepts ``NaN`` / ``Infinity`` (and integers too large
    for a float); none of them is a physical parameter or fingerprintable."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SpecError(
            f"spec field {name!r} must be a finite number, got {value!r}")
    return out


def _coerce(name: str, kind: type, value: Any) -> Any:
    """Type-check one field, allowing int -> float widening only."""
    if (kind is float and isinstance(value, (int, float))
            and not isinstance(value, bool)):
        return _finite(name, value)
    if kind is int and isinstance(value, bool):
        raise SpecError(f"spec field {name!r} must be an integer, got a bool")
    if not isinstance(value, kind):
        raise SpecError(
            f"spec field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


def _positive_floats(name: str, values: Any) -> List[float]:
    if not isinstance(values, list) or not values:
        raise SpecError(f"spec field {name!r} must be a non-empty list")
    out: List[float] = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            raise SpecError(
                f"spec field {name!r} must hold positive numbers, got {v!r}")
        out.append(_finite(name, v))
    if len(set(out)) != len(out):
        raise SpecError(f"spec field {name!r} holds duplicate values")
    return out


@dataclass(frozen=True)
class CampaignSpec:
    """One validated, normalized campaign description.

    Build with :meth:`from_dict` (the service's submission path) — the
    constructor assumes already-validated values.  ``fingerprint`` is the
    coalescing/caching identity; ``protocols()`` expands the parameter
    grid into the exact :class:`~repro.smd.PullingProtocol` objects the
    streaming executor fingerprints, so spec identity and store identity
    can never drift apart.
    """

    kind: str
    kappas: Tuple[float, ...]
    velocities: Tuple[float, ...]
    n_samples: int
    samples_per_task: int
    n_records: int
    distance: float
    start_z: float
    equilibration_ns: float
    seed: int
    estimator: str
    kernel: str
    window: int
    fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fingerprint", self._fingerprint())

    @classmethod
    def from_dict(cls, doc: Any) -> "CampaignSpec":
        """Validate a submitted JSON document into a spec.

        Raises :class:`~repro.errors.SpecError` (the API's 400) on any
        unknown field, type mismatch, or out-of-range value.
        """
        if not isinstance(doc, dict):
            raise SpecError("campaign spec must be a JSON object")
        unknown = sorted(set(doc) - set(_FIELDS) - {"schema"})
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(unknown)}")
        schema = doc.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError(
                f"unsupported spec schema {schema!r}; expected {SPEC_SCHEMA}")
        values: Dict[str, Any] = {}
        for name, (kind, default) in _FIELDS.items():
            if name in doc:
                values[name] = _coerce(name, kind, doc[name])
            elif default is None:
                raise SpecError(f"spec field {name!r} is required")
            else:
                values[name] = default
        if values["kind"] != "study":
            raise SpecError(
                f"unknown campaign kind {values['kind']!r}; only 'study' "
                f"campaigns are served in spec v1")
        values["kappas"] = tuple(_positive_floats("kappas", values["kappas"]))
        values["velocities"] = tuple(
            _positive_floats("velocities", values["velocities"]))
        for name in ("n_samples", "samples_per_task", "n_records", "window"):
            if values[name] < 1:
                raise SpecError(f"spec field {name!r} must be >= 1")
        if values["n_records"] < 2:
            raise SpecError("spec field 'n_records' must be >= 2")
        if values["n_samples"] % values["samples_per_task"]:
            raise SpecError(
                f"samples_per_task ({values['samples_per_task']}) must "
                f"divide n_samples ({values['n_samples']}) evenly")
        if values["distance"] <= 0:
            raise SpecError("spec field 'distance' must be positive")
        if values["equilibration_ns"] < 0:
            raise SpecError("spec field 'equilibration_ns' must be >= 0")
        if values["seed"] < 0:
            raise SpecError("spec field 'seed' must be >= 0")
        if values["kernel"] not in _V1_KERNELS:
            raise SpecError(
                f"unknown kernel {values['kernel']!r}; "
                f"expected one of {_V1_KERNELS}")
        from ..core import available_estimators, paired_estimators

        if values["estimator"] not in available_estimators():
            raise SpecError(
                f"unknown estimator {values['estimator']!r}; choose from "
                f"{sorted(available_estimators())}")
        if values["estimator"] in paired_estimators():
            # A study cell holds forward pulls only; paired estimators need
            # a matched reverse ensemble the campaign never generates.
            raise SpecError(
                f"estimator {values['estimator']!r} needs paired "
                f"forward/reverse data; campaign cells are forward-only "
                f"(use the 'estimate' CLI with --method fr instead)")
        return cls(**values)

    # -- identity --------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """The normalized JSON form (the one the fingerprint covers)."""
        return {
            "schema": SPEC_SCHEMA,
            "kind": self.kind,
            "kappas": list(self.kappas),
            "velocities": list(self.velocities),
            "n_samples": self.n_samples,
            "samples_per_task": self.samples_per_task,
            "n_records": self.n_records,
            "distance": self.distance,
            "start_z": self.start_z,
            "equilibration_ns": self.equilibration_ns,
            "seed": self.seed,
            "estimator": self.estimator,
            "kernel": self.kernel,
            "window": self.window,
        }

    def _fingerprint(self) -> str:
        from ..store.fingerprint import canonical_json

        doc = self.as_dict()
        # The kernel field is inert and the window only bounds in-flight
        # state: neither is part of the identity, so the same physics
        # submitted under a different kernel/window coalesces onto the
        # same run.
        doc.pop("kernel")
        doc.pop("window")
        return hashlib.sha256(
            canonical_json(doc).encode("utf-8")).hexdigest()

    # -- expansion -------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Grid cells in the study: ``len(kappas) * len(velocities)``."""
        return len(self.kappas) * len(self.velocities)

    @property
    def n_tasks(self) -> int:
        """Store-level tasks the campaign decomposes into (quota unit)."""
        return self.n_cells * (self.n_samples // self.samples_per_task)

    def protocols(self) -> List[Any]:
        """The study's pulling protocols, in deterministic grid order.

        Kappa-major, velocity-minor — the same nesting every classic
        driver uses, so streamed task indices (and hence dead-letter
        reports) are reproducible from the spec alone.
        """
        from ..smd import PullingProtocol

        return [
            PullingProtocol(
                kappa_pn=kappa, velocity=velocity, distance=self.distance,
                start_z=self.start_z,
                equilibration_ns=self.equilibration_ns)
            for kappa in self.kappas
            for velocity in self.velocities
        ]

    def cell_labels(self) -> List[Tuple[Any, ...]]:
        """Per-cell label tuples, aligned with :meth:`protocols`.

        These are the streamed study's own labels
        (:func:`repro.smd.cell_labels`) — the join key between spec cells
        and streamed/merged ensembles.
        """
        from ..smd import cell_labels

        return [cell_labels(proto) for proto in self.protocols()]
