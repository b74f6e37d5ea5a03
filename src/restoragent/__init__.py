"""Agentic restoration planning: perception, experience-grounded scheduling,
reflective tool execution, and depth-first rollback search over a calibrated
simulated degradation environment."""

from .core import (
    ALL_DEGRADATIONS,
    ALL_TASKS,
    PRESENCE_THRESHOLD,
    Degradation,
    DegradationCombination,
    DegradationProfile,
    Severity,
    TaskKind,
    builtin_combinations,
    combinations_in_group,
    degradation_for,
    task_for,
)
from .envsim import (
    Environment,
    InteractionRule,
    TabularCalibration,
    ToolSpec,
    apply_tool,
    default_mechanistic_env,
    reference_calibration,
    reference_tabular_env,
)
from .execution import ExecutionPolicy, execute_subtask, pick_best
from .explore import ExplorationConfig, explore, explore_and_build_kb
from .knowledge import (
    ExperienceRecord,
    KnowledgeBase,
    PrecedenceRule,
    aggregate,
    distill,
    load_kb,
    reference_kb,
    retrieve,
    save_kb,
)
from .perception import (
    NoiseModel,
    NoisyOracle,
    PerfectOracle,
    classification_metrics,
    evaluate_agenda,
    reflect,
)
from .scheduling import (
    ConsistencyReport,
    ExperienceScheduler,
    RandomScheduler,
    measure_consistency,
    reschedule,
)
from .search import SearchTrace, WorkflowDeps, brute_force_oracle, dfs, run_workflow

__version__ = "0.1.0"
