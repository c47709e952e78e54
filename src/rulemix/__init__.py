"""Joint rule-and-task training with an inference-time rule-strength knob."""

from types import ModuleType as _Module

from .autodiff import Tape, as_matrix
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_from_dict, default_config, load_config
from .data import Dataset, read_dataset_csv, write_dataset_csv
from .evaluate import (
    AlphaSelection,
    SweepRecord,
    alpha_grid,
    alpha_sweep,
    select_alpha,
    task_metric,
)
from .model import ModelSpec, init_params, predict, predict_values
from .optim import AdamState, adam_update
from .pendulum import PendulumParams, build_pendulum_dataset, energy
from .rules import (
    EnergyDampingRule,
    MonotonicRule,
    ThresholdRule,
    perturb_batch,
    verification_ratio,
)
from .tabular import (
    CorrGroupSpec,
    ShiftMixSpec,
    synth_monotone_regression,
    synth_shifted_classification,
)
from .train import (
    FitResult,
    LossScale,
    TrainConfig,
    TrainReport,
    compute_loss_scale,
    fit,
    sample_alpha,
    train_step,
)

# the names imported above, without the submodules that importing them binds
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module))]
__version__ = "0.1.0"
