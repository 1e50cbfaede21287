"""Hierarchical relational graph embedding for multi-view shape
recognition and retrieval, on a small numpy autodiff core."""

from .autograd import Tensor, softmax_cross_entropy
from .data import (
    FeatureDataset,
    ShapeRecord,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
)
from .graph import (
    GlobalDescriptor,
    HrgeModel,
    LevelParams,
    VariantSpec,
    ViewGraph,
    coarsen,
    hrge_forward,
    level_descriptor,
    neighboring_relation,
    pairwise_relation,
)
from .layers import LinearLayer, Mlp, linear_forward
from .optim import Adam, LrSchedule
from .retrieval import (
    DescriptorIndex,
    MetricsReport,
    aggregate,
    build_index,
    evaluate_retrieval,
    extract_descriptor,
    pairwise_distances,
    ranking_metrics,
)
from .training import (
    Classifier,
    TrainConfig,
    TrainLog,
    evaluate_accuracy,
    train,
)

__version__ = "0.1.0"
