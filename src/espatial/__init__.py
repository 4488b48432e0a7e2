"""Dynamic scene graph engine and embodied spatial-reasoning toolkit.

Builds structured spatial knowledge from perception records, evolves it
under actions and disturbances, answers spatial queries with evidence
traces, validates reasoning steps against the graph, and plans physically
valid brick assembly sequences.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    DEFAULT_THRESHOLDS,
    PALETTE,
    Box,
    RelationEdge,
    RelationKind,
    Thresholds,
    classify_color,
    derive_all,
    derive_pairwise,
    distance,
    lift_to_3d,
    overlap_iou,
)
from .scene import (  # noqa: F401
    Action,
    DisturbanceEvent,
    GraphHistory,
    ObjectNode,
    Pose,
    SceneGraph,
    apply_action,
    apply_disturbance,
    update_node_states,
)
from .bricks import (  # noqa: F401
    BrickSpec,
    LegoStructure,
    PlacedBrick,
    StructureDescription,
    canonicalize,
    describe,
    equals,
    from_graph,
    validate,
)
from .planner import (  # noqa: F401
    AssemblyPlan,
    PlacementCommand,
    parse_command,
    plan,
    replay,
    serialize_command,
)
from .perception import (  # noqa: F401
    DetectionRecord,
    PerceptionFrame,
    build_graph,
    load_graph,
    load_scene,
    save_graph,
    save_scene,
    synth_frame,
    synth_scene,
)
from .query import (  # noqa: F401
    Answer,
    QueryCategory,
    SpatialQuery,
    WorkspaceEnvelope,
    answer,
)
from .cot import (  # noqa: F401
    FallbackReasoner,
    ReasoningStep,
    ReasoningTrace,
    RemoteClient,
    StepProposal,
    reason,
    reason_over_plan,
    serialize_graph,
    validate_step,
)
from .bench import (  # noqa: F401
    QaDataset,
    QaItem,
    Report,
    generate_dataset,
    run_bench,
    run_reassembly,
)
from .config import EngineConfig, load_config  # noqa: F401
