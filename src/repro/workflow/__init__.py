"""SPICE campaign orchestration: the paper's three-phase method as code."""

from .phases import (
    StructuralInsight,
    StaticVizPhase,
    InteractiveInsight,
    InteractivePhase,
    BatchPhaseResult,
    BatchPhase,
)
from .adaptive import (
    AdaptiveReport,
    BinReport,
    allocate_largest_remainder,
    run_adaptive_campaign,
)
from .campaign import SpiceCampaign, SpiceCampaignResult, build_default_federation
from .interactive_session import InteractiveSessionOutcome, InteractiveSessionRunner
from .production import FullAxisResult, run_full_axis_production
from .streaming import (
    StreamReport,
    StreamTask,
    run_streamed_study,
    run_streamed_tasks,
    stream_study_tasks,
)

__all__ = [
    "StructuralInsight",
    "StaticVizPhase",
    "InteractiveInsight",
    "InteractivePhase",
    "BatchPhaseResult",
    "BatchPhase",
    "SpiceCampaign",
    "SpiceCampaignResult",
    "build_default_federation",
    "InteractiveSessionOutcome",
    "InteractiveSessionRunner",
    "FullAxisResult",
    "run_full_axis_production",
    "AdaptiveReport",
    "BinReport",
    "allocate_largest_remainder",
    "run_adaptive_campaign",
    "StreamTask",
    "StreamReport",
    "stream_study_tasks",
    "run_streamed_tasks",
    "run_streamed_study",
]
