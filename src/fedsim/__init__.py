"""Deterministic federation simulator.

Simulates synchronous, semi-synchronous and asynchronous federated training
over heterogeneous learners on a virtual clock, with pluggable aggregation
weighting and an O(model) incremental community-model cache.
"""

from .config import ConfigError, ExperimentConfig, parse_config, parse_config_text
from .controller import (
    CommunityState,
    ContributionRecord,
    DegenerateWeightError,
    WeightingScheme,
    cached_update,
    compute_contribution,
    fedasync_update,
    init_community,
    poly_staleness,
    record_fetch,
    snapshot,
    staleness_discount,
)
from .engine import (
    EvalSnapshot,
    LearnerProfile,
    MetricsLog,
    ProtocolConfig,
    SchedulePlan,
    export_metrics,
    plan_semisync,
    run_policy,
)
from .optimizers import (
    OptimizerConfig,
    epoch_batches,
    run_client_opt,
    step_fedprox,
    step_momentum,
    step_vanilla,
)
from .params import (
    NonFiniteError,
    ParamSet,
    StructureError,
    axpy,
    max_abs_diff,
    scale,
    weighted_average,
    zeros_like,
)
from .partition import (
    PartitionError,
    PartitionResult,
    PartitionSpec,
    assign_classes,
    assign_to_devices,
    make_sizes,
)
from .runner import bench_cache, build_world, run_experiment
from .tasks import (
    Dataset,
    TaskModel,
    evaluate,
    gen_synthetic,
    init_params,
    loss_and_grad,
    zero_params,
)

__version__ = "0.1.0"

__all__ = [
    "CommunityState",
    "ConfigError",
    "ContributionRecord",
    "Dataset",
    "DegenerateWeightError",
    "EvalSnapshot",
    "ExperimentConfig",
    "LearnerProfile",
    "MetricsLog",
    "NonFiniteError",
    "OptimizerConfig",
    "ParamSet",
    "PartitionError",
    "PartitionResult",
    "PartitionSpec",
    "ProtocolConfig",
    "SchedulePlan",
    "StructureError",
    "TaskModel",
    "WeightingScheme",
    "assign_classes",
    "assign_to_devices",
    "axpy",
    "bench_cache",
    "build_world",
    "cached_update",
    "compute_contribution",
    "epoch_batches",
    "evaluate",
    "export_metrics",
    "fedasync_update",
    "gen_synthetic",
    "init_community",
    "init_params",
    "loss_and_grad",
    "make_sizes",
    "max_abs_diff",
    "parse_config",
    "parse_config_text",
    "plan_semisync",
    "poly_staleness",
    "record_fetch",
    "run_client_opt",
    "run_experiment",
    "run_policy",
    "scale",
    "snapshot",
    "staleness_discount",
    "step_fedprox",
    "step_momentum",
    "step_vanilla",
    "weighted_average",
    "zero_params",
    "zeros_like",
]
