"""Steered molecular dynamics: protocols, pulling forces, work ensembles.

The two runners — :func:`~repro.smd.ensemble.run_pulling_ensemble` on the
reduced 1-D model and :class:`~repro.smd.pulling.SMDPullingForce` +
:class:`~repro.smd.pulling.SMDWorkRecorder` on the 3-D engine — produce the
same work-curve record format, consumed by :mod:`repro.core`.  The 3-D
pair exists once: built from per-replica protocols it drives a whole
replica stack of the one MD engine (:mod:`repro.md.batch`).

The reduced-model side is three layers: one engine
(:func:`~repro.smd.batched.run_pulling_stack`, the only vectorised step
loop, taking a stack of seeded replica groups of any mix of protocols),
one task plan + executor (:mod:`repro.smd.plan`: task identity,
and the window step that resolves planned tasks against the store — hit,
stacked compute, put, merge), and thin entry points over them: a study is
a list of cells handed to :func:`~repro.smd.plan.run_cells`.  Every
``run_*`` entry point shares one keyword contract — ``seed=``, ``obs=``
and, above the engine, ``store=`` (the plan is the reduced model's one
store path; :func:`run_pulling_ensemble` takes no store, and
:func:`run_pulling_ensemble_3d`, which has no plan layer, memoizes its
whole ensemble itself).  How replica groups are laid out on the machine is
the window step's decision, not a caller's (the missing tasks of a window
share one engine call); only the two engine-level entry points,
:func:`run_pulling_ensemble` and :func:`run_pulling_ensemble_3d`, take
``kernel="reference"`` to run the per-replica / per-trajectory oracle the
production layout is tested against.
"""

from .protocol import (
    PullingProtocol,
    parameter_grid,
    DIRECTIONS,
    PAPER_KAPPAS,
    PAPER_VELOCITIES,
)
from .work import WorkEnsemble
from .batched import (
    run_pulling_stack,
    PAPER_CPU_HOURS_PER_NS,
)
from .ensemble import run_pulling_ensemble
from .plan import cell_labels
from .bidirectional import BidirectionalEnsemble, run_bidirectional_ensemble
from .ensemble3d import run_pulling_ensemble_3d
from .pulling import SMDPullingForce, SMDWorkRecorder
from .subtrajectory import SubTrajectoryPlan, plan_subtrajectories, stitch_pmfs

__all__ = [
    "PullingProtocol",
    "parameter_grid",
    "DIRECTIONS",
    "PAPER_KAPPAS",
    "PAPER_VELOCITIES",
    "WorkEnsemble",
    "run_pulling_ensemble",
    "run_pulling_stack",
    "cell_labels",
    "BidirectionalEnsemble",
    "run_bidirectional_ensemble",
    "run_pulling_ensemble_3d",
    "PAPER_CPU_HOURS_PER_NS",
    "SMDPullingForce",
    "SMDWorkRecorder",
    "SubTrajectoryPlan",
    "plan_subtrajectories",
    "stitch_pmfs",
]
