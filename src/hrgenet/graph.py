"""Hierarchical relational graph embedding over cyclic view graphs.

Views of a shape form a ring graph.  Each level runs a pairwise relation
module (all ordered node pairs through a small MLP, summed per node and
fused with the original feature), records a pooled level descriptor, runs
a neighboring relation module on ring triplets, and coarsens the ring by a
fixed stride.  The concatenated per-level descriptors form the global
shape descriptor.  Each ablation variant is one row of ``VARIANTS``,
switching these modules on or off.

Views come as one ``(n, w)`` matrix or as a ``(B, n, w)`` batch, and the
same code runs both.  Stacked-GEMM rule: every matrix product of the
model is a ``np.matmul`` over ``(B, M, K)`` with M the rows of one shape,
never one GEMM over the batch folded into ``B * M`` rows.  BLAS kernels
round differently by matrix size, so a folded GEMM would give a shape's
descriptor different last bits in different batches; one GEMM per shape
keeps each descriptor bit-identical to the shape's own unbatched forward.
Only weight gradients, which nothing compares bit for bit, fold the batch.

Each module is one graph node, or two for the pairwise module, because
at one shape every node is a few microseconds of numpy plus its Python
bookkeeping, so the node count sets the cost of a forward.  The fusion
and the learned neighboring module are each one `ag.ring_affine`
(``relu`` of an affine map of row-turned parts joined by columns), a
level block is one `ag.pool_rows` (the column max, unit-normalized by
variant), and coarsening is one `ag.ring_rows`.

The pair level holds n (n - 1) pairs per shape, so it is one op,
`ag.pair_relation_sum`: it puts each shape's rows in a canonical
order first, so that the relation sums do not depend on the order of the
views, lays the pair rows out as the ``(n, n)`` grid whose diagonal
rows, a node paired with itself, are zeroed before any sum, runs the
last pair layer once per node after the sum, and runs both passes over
groups of shapes whose pair rows fit ``ag.PAIR_GROUP_BYTES`` per array,
keeping the pair activations for backward only when the pass is one
group and recomputing them per group otherwise.  Grouping cannot
change a descriptor, since every GEMM is already per shape.  A pass of
two groups or more runs them on up to ``ag.MAX_PAIR_WORKERS`` threads:
the usable CPUs over the BLAS threads that ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` declares, and one thread when
none is set, since BLAS then uses every CPU.  Set
``OPENBLAS_NUM_THREADS=1`` for throughput.  No bit depends on the thread
count: each group writes its own rows, and the groups' weight gradients
are kept until the pass ends and added in group order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor, as_tensor
from .errors import (
    CoarseningError,
    ConfigError,
    RingTooSmallError,
    ShapeMismatchError,
)
from .layers import build_affines


@dataclass(frozen=True)
class VariantSpec:
    """One ablation variant: which modules each level of the model runs.

    ``neighbor_kind`` is ``learned``, ``max``, ``avg``, ``identity`` or
    None for no neighboring module.  A hierarchical variant emits one
    block per level and coarsens between levels; otherwise a single level
    runs and only its output is pooled.  ``depth_override`` fixes the
    level count; None leaves it to the model's ``depth`` argument.  A
    model refuses a ``depth`` that its variant does not run.
    """

    name: str
    use_pairwise: bool
    neighbor_kind: str | None
    hierarchical: bool
    normalize_blocks: bool
    depth_override: int | None = None

    @property
    def fixed_depth(self) -> int | None:
        """The level count the variant always runs, 0 for a
        non-hierarchical one; None when the model's ``depth`` sets it."""
        return self.depth_override if self.hierarchical else 0

    @classmethod
    def from_name(cls, name: str) -> "VariantSpec":
        """Resolve a variant key or paper name (``HRGE-full``, ``w/o-N``)."""
        key = name.strip().lower().removeprefix("hrge-")
        spec = VARIANTS.get(_IRREGULAR_NAMES.get(key, key))
        if spec is None:
            raise ConfigError(
                f"unknown variant {name!r}; expected one of {VARIANT_NAMES}"
            )
        return spec


VARIANTS = {spec.name: spec for spec in (
    #           name        pairwise neighbor    hier.  normalized depth
    VariantSpec("baseline", False,   None,       False, True),
    VariantSpec("pr",       True,    None,       False, True),
    VariantSpec("nr",       False,   "learned",  False, True),
    VariantSpec("1l",       True,    "learned",  True,  True, 1),
    VariantSpec("full",     True,    "learned",  True,  True),
    VariantSpec("won",      True,    "learned",  True,  False),
    VariantSpec("mp",       True,    "max",      True,  True),
    VariantSpec("ap",       True,    "avg",      True,  True),
    VariantSpec("id",       True,    "identity", True,  True),
)}

VARIANT_NAMES = tuple(VARIANTS)

_IRREGULAR_NAMES = {"w/o-n": "won"}


@dataclass
class ViewGraph:
    """Ring-ordered node features at one hierarchy level: an ``(n, w)``
    matrix, or a ``(B, n, w)`` batch of rings of the same size."""

    level: int
    features: Tensor

    def __post_init__(self):
        self.features = as_tensor(self.features)
        shape = self.features.data.shape
        if len(shape) not in (2, 3) or shape[-2] < 1:
            raise ShapeMismatchError(
                f"view graph needs a non-empty 2-D feature matrix or a "
                f"batch of them, got shape {self.features.shape}"
            )

    @property
    def num_nodes(self) -> int:
        return self.features.data.shape[-2]

    @property
    def width(self) -> int:
        return self.features.data.shape[-1]


class LevelParams:
    """Learnable maps of one hierarchy level, declared as affine rows.

    ``pairwise`` is the three-layer MLP on concatenated node pairs
    (2w -> w -> w -> w), ``fusion`` maps [node, summed relations]
    (2w -> w), and ``neighboring`` maps ring triplets (3w -> w).  Each is
    None when the level lacks the module; ``neighboring`` is also None
    when a fixed pooling rule replaces the learned one.  ``named`` lists
    the blocks in row order, the order their weights are drawn.
    """

    def __init__(self, width: int, rng, neighbor_kind: str | None = "learned",
                 use_pairwise: bool = True):
        self.width = width
        self.neighbor_kind = neighbor_kind
        w, rows = width, []
        if use_pairwise:
            rows += [("pairwise.0", w, 2 * w), ("pairwise.1", w, w),
                     ("pairwise.2", w, w), ("fusion", w, 2 * w)]
        if neighbor_kind == "learned":
            rows.append(("neighboring", w, 3 * w))
        affines, self.named = build_affines(rows, rng)
        self.pairwise = None
        if use_pairwise:
            self.pairwise = [affines[f"pairwise.{k}"] for k in range(3)]
        self.fusion = affines.get("fusion")
        self.neighboring = affines.get("neighboring")


def pairwise_relation(graph: ViewGraph, params: LevelParams) -> ViewGraph:
    """Update node features from all ordered pairwise relations.

    For each node i the relations r_ij over all other nodes j are computed
    by the pairwise MLP on concatenated features, summed, and fused with
    the node's own feature through the fusion layer plus a rectifier.  The
    module is two graph nodes.  The pairs, the MLP and the sum are one op,
    `ag.pair_relation_sum`, which runs on the nodes in a canonical order
    of their features, so the sum does not depend on the order of the
    nodes; it factors the MLP's first layer over the pair and applies the
    last layer once per node to the sum of the hidden activations.  The
    fusion is one `ag.ring_affine` over ``[node, summed relations]``.
    """
    x, width = graph.features, graph.width
    if params.pairwise is None:
        raise ConfigError("level has no pairwise module")
    if width != params.width:
        raise ShapeMismatchError(
            f"graph width {width} does not match level width {params.width}"
        )
    summed = ag.pair_relation_sum(x, params.pairwise)
    return ViewGraph(graph.level, ag.ring_affine([(x, 0), (summed, 0)],
                                                 *params.fusion))


def neighboring_relation(graph: ViewGraph, params: LevelParams) -> ViewGraph:
    """Fuse each node with its ring neighbors (cyclic wrap at both ends).

    The learned kind is one `ag.ring_affine` node over the triplets
    ``[prev, node, next]``; the fixed kinds combine `ag.ring_rows` views.
    """
    n = graph.num_nodes
    if n < 3:
        raise RingTooSmallError(
            f"neighboring relation needs a ring of >= 3 nodes, got {n}"
        )
    x = graph.features
    kind = params.neighbor_kind
    if kind == "identity":
        return ViewGraph(graph.level, x)
    if kind == "learned":
        if params.neighboring is None:
            raise ConfigError("level has no learned neighboring layer")
        return ViewGraph(graph.level, ag.ring_affine(
            [(x, -1), (x, 0), (x, 1)], *params.neighboring))
    prev, nxt = ag.ring_rows(x, -1), ag.ring_rows(x, 1)
    if kind == "max":
        out = ag.maximum(ag.maximum(prev, x), nxt)
    elif kind == "avg":
        out = ag.scale(ag.add(ag.add(prev, x), nxt), 1.0 / 3.0)
    else:
        raise ConfigError(f"unknown neighbor kind {kind!r}")
    return ViewGraph(graph.level, out)


def coarsen(graph: ViewGraph, stride: int) -> ViewGraph:
    """Down-sample the ring, keeping every stride-th node.

    With 1-based ring indices the new node i takes the feature of old
    node stride*i, so stride 2 keeps old nodes 2, 4, ..., N: the rows
    ``stride - 1::stride``, in ring order.
    """
    n = graph.num_nodes
    if stride < 1:
        raise CoarseningError(f"stride must be >= 1, got {stride}")
    if n % stride != 0:
        raise CoarseningError(
            f"cannot coarsen {n} nodes with stride {stride}"
        )
    return ViewGraph(graph.level + 1,
                     ag.ring_rows(graph.features, stride - 1, stride))


def level_descriptor(features, normalize: bool):
    """Column-wise max over node features, unit-normalized if
    `normalize` is set.

    Returns ``(tensor, degenerate)``; the degenerate flag mirrors the
    normalization guard on all-zero pooled features.
    """
    return ag.pool_rows(features, normalize)


@dataclass
class GlobalDescriptor:
    """Per-level pooled descriptors, their concatenation and one
    degenerate-norm flag per block; each carries the batch axis of the
    views, if they had one."""

    blocks: list
    concat: Tensor
    degenerate: list = field(default_factory=list)


def hierarchy_depth(num_views: int, stride: int,
                    depth: int | None = None) -> int:
    """Level count of a ring of `num_views` views cut by `stride`: `depth`,
    or the deepest valid one when it is None.  The one ring-size rule:
    stride >= 2, depth >= 1, and every level's ring divides by the stride
    and has >= 3 nodes.  Anything else raises `ConfigError`."""
    if stride < 2:
        raise ConfigError(f"stride must be >= 2, got {stride}")
    if depth is not None and depth < 1:
        raise ConfigError(f"hierarchy depth must be >= 1, got {depth} "
                          f"({num_views} views, stride {stride})")
    level, n = 0, num_views
    while level != depth and n >= 3 and n % stride == 0:
        level, n = level + 1, n // stride
    if level < (depth or 1):
        raise ConfigError(
            f"{num_views} views with stride {stride} cannot support depth "
            f"{depth or '>= 1'}: level {level} has {n} nodes, and each level "
            f"needs a ring of >= 3 nodes that divides by the stride")
    return level


class HrgeModel:
    """The hierarchical relational embedding network of one variant."""

    def __init__(self, num_views: int, width: int, variant="full",
                 stride: int = 2, depth: int | None = None, seed: int = 0):
        if isinstance(variant, str):
            variant = VariantSpec.from_name(variant)
        # A non-hierarchical variant takes no depth, `1l` only its own.
        fixed = variant.fixed_depth
        if depth is not None and fixed is not None and depth != (fixed or None):
            levels = f"{fixed} level" if fixed else "no hierarchy"
            raise ConfigError(f"variant {variant.name} has {levels}; it "
                              f"cannot run depth {depth}")
        self.depth = 0
        if variant.hierarchical:
            self.depth = hierarchy_depth(num_views, stride,
                                         variant.depth_override or depth)
        elif stride < 2:
            raise ConfigError(f"stride must be >= 2, got {stride}")
        elif variant.neighbor_kind is not None and num_views < 3:
            raise ConfigError(f"variant {variant.name}'s neighboring relation "
                              f"needs a ring of >= 3 views, got {num_views}")
        self.variant = variant
        self.num_views = num_views
        self.width = width
        self.stride = stride
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.levels = [
            LevelParams(width, rng, neighbor_kind=variant.neighbor_kind,
                        use_pairwise=variant.use_pairwise)
            for _ in range(self.depth if variant.hierarchical else 1)
        ]

    @property
    def descriptor_length(self) -> int:
        return self.num_blocks * self.width

    @property
    def num_blocks(self) -> int:
        if self.variant.hierarchical:
            return self.depth + 1
        return 1

    def named_parameters(self):
        return [(f"level{l}.{name}", p) for l, level in enumerate(self.levels)
                for name, p in level.named]

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def hrge_forward(model: HrgeModel, views) -> GlobalDescriptor:
    """Run the hierarchical forward pass and build the global descriptor.

    Per level: pairwise relations update the features, a hierarchical
    variant pools the level block from those updated features, then the
    neighboring module and (hierarchical variants only) coarsening produce
    the next level's ring.  The final ring is pooled as the last block.
    A ``(B, n, w)`` batch of views gives ``(B, ...)`` blocks, each row
    bit-identical to that shape's own unbatched forward.
    """
    views = as_tensor(views)
    shape = views.data.shape
    if len(shape) not in (2, 3) or shape[-2] != model.num_views:
        raise ShapeMismatchError(
            f"expected a {model.num_views} x {model.width} view matrix "
            f"or a batch of them, got shape {views.shape}"
        )
    if shape[-1] != model.width:
        raise ShapeMismatchError(
            f"view feature width {shape[-1]} does not match "
            f"model width {model.width}"
        )
    variant = model.variant
    blocks, flags = [], []

    def emit(features):
        block, degenerate = level_descriptor(features,
                                             variant.normalize_blocks)
        blocks.append(block)
        flags.append(degenerate)

    graph = ViewGraph(0, views)
    for level_params in model.levels:
        if level_params.pairwise is not None:
            graph = pairwise_relation(graph, level_params)
        if variant.hierarchical:
            emit(graph.features)
        if level_params.neighbor_kind is not None:
            graph = neighboring_relation(graph, level_params)
        if variant.hierarchical:
            graph = coarsen(graph, model.stride)
    emit(graph.features)
    concat = ag.concat_cols(blocks) if len(blocks) > 1 else blocks[0]
    return GlobalDescriptor(blocks=blocks, concat=concat, degenerate=flags)
