"""Multigrid convolutional network for volumetric binary classification.

A self-contained stack: a float32 tensor engine with reverse-mode
differentiation, the multigrid forward pass, SGD training with
subject-grouped stratified cross-validation, classification metrics, and
a batch CLI.
"""

from .data import (
    FoldAssignment,
    Manifest,
    VolumeRecord,
    atrophy_mask,
    load_manifest,
    load_volume,
    normalize,
    read_volume_header,
    save_manifest,
    save_volume,
    stratified_group_kfold,
    synth_generate,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DataError,
    DivergenceError,
    FormatError,
    MgnetError,
    ShapeError,
    StateError,
)
from .metrics import EvalMetrics, compute_metrics, confusion, roc_auc
from .model import (
    MgNetConfig,
    MgNetParams,
    build,
    forward,
    level_shapes,
    load_checkpoint,
    param_breakdown,
    param_count,
    restrict,
    save_checkpoint,
    smooth,
)
from .tensor import (
    Tensor,
    add,
    avg_pool3d,
    backward,
    channel_norm,
    conv3d,
    conv_output_extent,
    global_avg_pool,
    linear,
    mean_scalars,
    record,
    relu,
    scale,
    sgd_step,
    softmax_cross_entropy,
    sub,
)
from .training import (
    CvResult,
    EpochStats,
    TrainConfig,
    cross_validate,
    evaluate,
    summarize_folds,
    train,
)

__version__ = "0.1.0"
