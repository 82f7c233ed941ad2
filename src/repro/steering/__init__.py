"""RealityGrid-style computational steering framework (paper Fig. 2).

Components (simulation client, steerer, visualizer) exchange typed messages
through intermediate services; transport can be instantaneous or carried
over simulated network channels.  Checkpoint/clone is backed by a lineage
tree.
"""

from .messages import MessageType, ControlAction, SteeringMessage
from .services import LogicalClock, SteeringService, Registry, ServiceConnection
from .checkpoints import CheckpointNode, CheckpointTree
from .library import SteerableParam, SteeringClient
from .steerer import Steerer
from .visualizer import Visualizer, RenderedFrame

__all__ = [
    "MessageType",
    "ControlAction",
    "SteeringMessage",
    "LogicalClock",
    "SteeringService",
    "Registry",
    "ServiceConnection",
    "CheckpointNode",
    "CheckpointTree",
    "SteerableParam",
    "SteeringClient",
    "Steerer",
    "Visualizer",
    "RenderedFrame",
]
