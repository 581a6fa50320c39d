"""adaptsim: simulate and orchestrate self-adaptive service pipelines.

The package models a parameterized service pipeline whose configurations
trade objective value (e.g. precision) against processing latency, a
shared-device environment with Markov-chain CPU availability and varying
input load, and a set of runtime controllers (static, rule ladder, tabular
Q-learning) that pick a configuration per processed frame subject to hard
latency constraints.
"""

from .controllers import (
    ControllerObservation,
    HeuristicController,
    HeuristicParams,
    LearningParams,
    QLearningController,
    QTable,
    StaticController,
    encode_state_v1,
    encode_state_v2,
    make_action_space,
    q_update,
    qtable_load,
    qtable_save,
    reward,
    select_action,
)
from .defaults import (
    DEFAULT_INPUT_SIZES,
    default_model,
    default_requirement,
    default_topology,
)
from .harness import (
    ExperimentSpec,
    OverheadReport,
    RunMetrics,
    emit_report,
    measure_overhead,
    run_episode,
    run_experiment,
)
from .profiling import (
    ProfileTable,
    SyntheticProfileModel,
    generate_synthetic_profile,
    load_profile,
    save_profile,
)
from .service_model import (
    Configuration,
    ConstraintSpec,
    OperatorSpec,
    ParameterSpec,
    Requirement,
    ServiceTopology,
    enumerate_configurations,
    sort_by_objective,
)
from .simenv import (
    CpuChain,
    CpuChainParams,
    Environment,
    EnvState,
    EpisodeFinished,
    InputTrace,
    ScriptedCpu,
    StepOutcome,
    custom_trace,
    make_trace,
)

__version__ = "0.1.0"
