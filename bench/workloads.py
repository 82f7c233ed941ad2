"""The four benchmark workloads: inputs from a seed, and their accounting.

Pure data — no ``repro`` import — so the parent process, the tests and
``compare.py`` can reason about a workload without paying for NumPy.
``child.py`` turns these plans into calls into the program.

Why these four (the full rationale is in ``bench/README.md``):

* ``fig4_cold`` — the paper's Fig. 4 grid over HTTP into a fresh store;
  compute-bound (``smd.ensemble`` is nearly all of the wall time).
* ``tiny_tasks_cold`` — 1024 one-replica tasks into a fresh store; the
  10^6-short-task regime in miniature, dominated by durable writes.
* ``warm_service`` — the same store and state layers used as *reads*:
  campaigns that resolve from store hits, a closed loop of GETs, and
  result-cache twins.  Nothing computes.
* ``cg3d_pull`` — the 3-D CG engine called as a library; the only path
  that runs the ``md`` force/neighbor kernels.
"""

from __future__ import annotations

from typing import Any, Dict

DEFAULT_SEED = 2005

#: Demo operator token (``AuthRegistry.demo``): the service is booted with
#: its default registry, as a laptop quickstart would.
OPERATOR_TOKEN = "spice-operator-token"

#: name -> one-line reason (copied into BENCHMARK.json ``workloads``).
WORKLOADS: Dict[str, str] = {
    "fig4_cold": (
        "Fig. 4 grid (3 kappa x 4 v, 48 tasks, 81.6 sampled ns) over HTTP "
        "into a fresh store: compute-bound, so step-loop work shows and "
        "store work must not"),
    "tiny_tasks_cold": (
        "1024 one-replica tasks into a fresh store: ~3 fsyncs per task, so "
        "store-write and runner bookkeeping dominate and compute does not"),
    "warm_service": (
        "store-hit campaigns, closed-loop GETs and result-cache twins on a "
        "pre-filled store: the read side of store/state/http, no compute"),
    "cg3d_pull": (
        "3-D CG pulling ensemble as a library call, no store, no service: "
        "the only path through the md force/neighbor kernels"),
}

#: Phase-B request classes of ``warm_service``, in issue order.
REQUEST_CLASSES = ("status", "result200", "result304", "events")

_WARM_ESTIMATORS = ("cumulant", "block", "parallel-pull")


def cold_spec(workload: str, seed: int, smoke: bool = False) -> Dict[str, Any]:
    """The spec a cold workload submits (``seed`` becomes ``spec.seed``)."""
    if workload == "fig4_cold":
        if smoke:
            return {"kappas": [10, 100], "velocities": [50, 100],
                    "n_samples": 4, "samples_per_task": 2, "n_records": 21,
                    "seed": seed}
        return {"kappas": [10, 100, 1000],
                "velocities": [12.5, 25, 50, 100],
                "n_samples": 16, "samples_per_task": 4, "n_records": 21,
                "seed": seed}
    if workload == "tiny_tasks_cold":
        return _tiny_spec(seed, 64 if smoke else 1024)
    raise KeyError(f"{workload!r} is not a cold service workload")


def _tiny_spec(seed: int, n_samples: int) -> Dict[str, Any]:
    return {"kappas": [100], "velocities": [100.0], "n_samples": n_samples,
            "samples_per_task": 1, "n_records": 5, "distance": 0.5,
            "equilibration_ns": 0.0, "seed": seed}


def warm_plan(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """``warm_service``: pre-fill spec, phase-A specs, phase-B/C sizes.

    Phase A's specs never compute: a smaller ``n_samples`` reuses the
    task-key prefix of the pre-fill, and a different ``estimator`` changes
    the spec fingerprint (so the campaign really runs) but no task
    fingerprint (so every task is a store hit).
    """
    full = 32 if smoke else 512
    prefill = _tiny_spec(seed, full)
    phase_a = [dict(prefill, estimator=estimator, n_samples=n)
               for estimator in _WARM_ESTIMATORS
               for n in (full, full // 2)]
    return {
        "prefill": prefill,
        "phase_a": phase_a,
        "gets_per_class": 25 if smoke else 500,
        "twins": 10 if smoke else 100,
    }


def cg3d_plan(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """Arguments of the ``run_pulling_ensemble_3d`` library call."""
    if smoke:
        return {"protocol": {"kappa_pn": 100, "velocity": 100,
                             "distance": 1, "equilibration_ns": 0.001},
                "n_samples": 2, "n_bases": 8, "n_records": 9, "seed": seed}
    return {"protocol": {"kappa_pn": 100, "velocity": 100, "distance": 4,
                         "equilibration_ns": 0.005},
            "n_samples": 8, "n_bases": 8, "n_records": 9, "seed": seed}


# -- accounting ---------------------------------------------------------------

#: ``CampaignSpec`` defaults the accounting needs when a spec omits them.
_SPEC_DEFAULTS = {"distance": 10.0, "equilibration_ns": 0.05}


def spec_tasks(spec: Dict[str, Any]) -> int:
    """Store tasks a spec decomposes into (``CampaignSpec.n_tasks``)."""
    cells = len(spec["kappas"]) * len(spec["velocities"])
    return cells * (spec["n_samples"] // spec["samples_per_task"])


def spec_sampled_ns(spec: Dict[str, Any]) -> float:
    """Sum over replicas of pull duration plus equilibration, in ns."""
    distance = spec.get("distance", _SPEC_DEFAULTS["distance"])
    equilibration = spec.get("equilibration_ns",
                             _SPEC_DEFAULTS["equilibration_ns"])
    per_kappa = sum(distance / v + equilibration for v in spec["velocities"])
    return len(spec["kappas"]) * spec["n_samples"] * per_kappa


def cg3d_sampled_ns(plan: Dict[str, Any]) -> float:
    proto = plan["protocol"]
    return plan["n_samples"] * (proto["distance"] / proto["velocity"]
                                + proto["equilibration_ns"])
