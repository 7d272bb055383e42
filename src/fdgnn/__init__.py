"""Fully distributed training of graph convolutional networks over simulated
synchronous message-passing rounds."""

from .graphs import (
    ConsensusWeights,
    Graph,
    GraphGenerationError,
    ShiftOperator,
    build_shift,
    generate_ba,
    generate_er,
    load_edge_list,
    metropolis_weights,
    save_edge_list,
)
from .gcnn import (
    LayerSpec,
    ParamSet,
    central_gradient,
    forward,
    init_params,
    load_params,
    mse_loss,
    save_params,
)
from .agents import (
    AgentState,
    Message,
    ProtocolError,
    local_backward_init,
    local_backward_layer,
    local_forward_layer,
    local_gradient,
    make_agents,
    stacked_gradients,
)
from .optim import (
    DistOptimizer,
    MomentState,
    OptimizerConfig,
    central_update,
    consensus_round,
    dadam_update,
    damsgrad_update,
    dnaive_update,
    dsgd_update,
)
from .netsim import (
    CausalityError,
    CommLedger,
    Network,
    RoundPlan,
    audit_causality,
    build_round_plan,
    cost_table,
    expected_rounds,
    run_minibatch,
)
from .datagen import Dataset, DatasetSpec, Sample, make_dataset
from .trainer import (
    MetricsLog,
    RunConfig,
    TrainingDiverged,
    TrainResult,
    train_centralized,
    train_distributed,
)

__version__ = "0.1.0"
