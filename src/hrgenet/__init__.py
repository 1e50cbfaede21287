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
    hrge_forward,
)
from .layers import Affine
from .optim import Adam
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
