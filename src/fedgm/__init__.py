"""Robust federated aggregation via the smoothed Weiszfeld geometric median."""

from .corruption import (
    CorruptionSpec,
    omniscient_updates,
    poison_adaptive,
    poison_static,
    realize,
)
from .fl_core import (
    AggregatorSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    RoundTrace,
    TailAveragedSGD,
    aggregate,
    local_update_sgd,
    local_update_tail_avg_sgd,
    run_federated,
    run_rfa_doubling,
    sample_devices,
    trace_diverged,
)
from .geomed import GMResult, WeightedPointSet, smoothed_weiszfeld
from .secure_avg import SecureAverageOracle
from .tasks import (
    FederatedPartition,
    SyntheticLSTask,
    exact_optimum,
    generate_ls_task,
    least_squares_gradient,
    least_squares_loss,
    partition_data,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatorSpec",
    "CorruptionSpec",
    "FederatedPartition",
    "GMResult",
    "LocalSGD",
    "LrSchedule",
    "RoundConfig",
    "RoundTrace",
    "SecureAverageOracle",
    "SyntheticLSTask",
    "TailAveragedSGD",
    "WeightedPointSet",
    "aggregate",
    "exact_optimum",
    "generate_ls_task",
    "least_squares_gradient",
    "least_squares_loss",
    "local_update_sgd",
    "local_update_tail_avg_sgd",
    "omniscient_updates",
    "partition_data",
    "poison_adaptive",
    "poison_static",
    "realize",
    "run_federated",
    "run_rfa_doubling",
    "sample_devices",
    "smoothed_weiszfeld",
    "trace_diverged",
]
