"""Hierarchical relational graph embedding over cyclic view graphs.

Views of a shape form a ring graph.  Each level runs a pairwise relation
module (all ordered node pairs through a small MLP, summed per node and
fused with the original feature), records a pooled level descriptor, runs
a neighboring relation module on ring triplets, and coarsens the ring by a
fixed stride.  The concatenated per-level descriptors form the global
shape descriptor.  Each ablation variant is one row of ``VARIANTS`` and
each neighbor kind one row of ``NEIGHBOR_KINDS``, which names its op.  A
model turns its variant into a level plan, ``HrgeModel.levels``, that
the forward runs with no test of the variant; a variant without
hierarchy is one level that emits only its last block.

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
is one `ag.ring_affine` (the rectified affine map of row-turned parts
joined by columns); the neighboring module is one node of the op its
kind names, ``ring_affine`` for the learned kind, ``ring_max`` or
``ring_mean`` over the same parts for max and avg, and none for the
identity kind; a level block is one `ag.pool_rows` (the column max,
unit-normalized by variant), and coarsening one `ag.ring_rows`.

The pair level holds n (n - 1) pairs per shape, so it is one op,
`ag.pair_relation_sum`: it puts each shape's rows in a canonical order
first, so that the relation sums do not depend on the order of the
views, lays the pair rows out as the ``(n, n)`` grid whose diagonal
rows, a node paired with itself, are zeroed before any sum, runs the
last pair layer once per node after the sum, and runs both passes over
the fewest groups of shapes whose pair rows fit ``ag.PAIR_GROUP_BYTES``
per array, equal to within one shape, keeping the pair activations for
backward only when the pass is one group and recomputing them per group
otherwise.  Grouping cannot change a descriptor, since every GEMM is
already per shape.  A pass of two groups or more runs them on up to
``ag.MAX_PAIR_WORKERS`` threads: the usable CPUs over the BLAS threads
that ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` declares, and one thread when none is set, since
BLAS then uses every CPU.  Set ``OPENBLAS_NUM_THREADS=1`` for
throughput.  No bit depends on the thread count: the groups depend only
on the shape count, n and the layer widths, each group writes its own
rows, and the groups' weight gradients are kept until the pass ends and
added in group order.

`hrge_forward` is the one walk over the plan, and inference needs no
graph.  Each op's forward math is one array kernel in `autograd`, named
after the op with ``_kernel`` appended; the op checks its inputs, runs
the kernel and adds the backward.  The walk looks every step's op up by
name on `autograd` when it runs: the op itself on tensors by default,
or with ``grad=False`` its kernel on plain arrays, so it builds no node
or closure and keeps no pair activation, and its blocks, concatenation
and degenerate flags have the graph forward's bits.  `retrieval.build_index`
runs it grad-free, and `training.predict_batch` runs it and the head's
kernel.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, as_tensor
from .errors import ConfigError, ShapeMismatchError
from .layers import build_affines


@dataclass(frozen=True)
class NeighborKind:
    """How a neighboring module fuses each node with its ring neighbors:
    one node of the `autograd` op named ``op`` (None passes the features
    through) over the ring turned by each of `shifts`, with the level's
    ``neighboring`` map for a `learned` kind.  `hrge_forward` looks
    ``op``, or ``op + "_kernel"``, up on `ag` when it runs, so that a
    function wrapped after import is the one that runs.  The shifts are
    a range, so they read distinct nodes on a ring of at least
    ``len(shifts)`` nodes."""

    shifts: range
    op: str | None
    learned: bool = False


NEIGHBOR_KINDS = {
    "learned": NeighborKind(range(-1, 2), "ring_affine", True),
    "max": NeighborKind(range(-1, 2), "ring_max"),
    "avg": NeighborKind(range(-1, 2), "ring_mean"),
    "identity": NeighborKind(range(1), None),
}


@dataclass(frozen=True)
class VariantSpec:
    """One ablation variant: which modules each level of its plan runs,
    and how many coarsening levels it has.

    ``neighbor_kind`` names a row of ``NEIGHBOR_KINDS``.  ``fixed_depth``
    is the number of coarsening levels the variant always runs, 0 for a
    plan of one level that emits only its last block; None leaves it to
    the model's ``depth`` argument.
    """

    name: str
    use_pairwise: bool
    neighbor_kind: str
    normalize_blocks: bool
    fixed_depth: int | None = None

    def depth_for(self, depth: int | None) -> int | None:
        """The depth a model of the variant runs for its ``depth``
        argument; `ConfigError` for a depth the variant does not run."""
        fixed = self.fixed_depth
        if depth is not None and (depth < 1 if fixed is None
                                  else depth != (fixed or None)):
            levels = {None: ">= 1 level", 0: "no hierarchy"}.get(
                fixed, f"{fixed} level")
            raise ConfigError(f"variant {self.name} has {levels}; it cannot "
                              f"run depth {depth}")
        return depth if fixed is None else fixed

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
    #           name        pairwise neighbor    normalized fixed depth
    VariantSpec("baseline", False,   "identity", True,      0),
    VariantSpec("pr",       True,    "identity", True,      0),
    VariantSpec("nr",       False,   "learned",  True,      0),
    VariantSpec("1l",       True,    "learned",  True,      1),
    VariantSpec("full",     True,    "learned",  True),
    VariantSpec("won",      True,    "learned",  False),
    VariantSpec("mp",       True,    "max",      True),
    VariantSpec("ap",       True,    "avg",      True),
    VariantSpec("id",       True,    "identity", True),
)}

VARIANT_NAMES = tuple(VARIANTS)

_IRREGULAR_NAMES = {"w/o-n": "won"}


class LevelParams:
    """One level of a model's plan: the modules it runs with their maps,
    declared as affine rows, and the stride it coarsens by.

    ``pairwise`` is the three-layer MLP on concatenated node pairs
    (2w -> w -> w -> w) and ``fusion`` maps [node, summed relations]
    (2w -> w); both are None without a pairwise module.  ``neighbor`` is
    the level's row of ``NEIGHBOR_KINDS`` and ``neighboring`` the map of
    a learned kind (3w -> w).  A level with a ``stride`` pools its block
    before the neighboring module and coarsens the ring after it; the one
    level of a plan without hierarchy has None and does neither.
    ``named`` lists the blocks in row order, the order their weights are
    drawn.
    """

    def __init__(self, width: int, rng, neighbor_kind: str = "learned",
                 use_pairwise: bool = True, stride: int | None = None):
        self.stride = stride
        self.neighbor = NEIGHBOR_KINDS[neighbor_kind]
        w, rows = width, []
        if use_pairwise:
            rows += [("pairwise.0", w, 2 * w), ("pairwise.1", w, w),
                     ("pairwise.2", w, w), ("fusion", w, 2 * w)]
        if self.neighbor.learned:
            rows.append(("neighboring", w, len(self.neighbor.shifts) * w))
        affines, self.named = build_affines(rows, rng)
        self.pairwise = ([affines[f"pairwise.{k}"] for k in range(3)]
                         if use_pairwise else None)
        self.fusion = affines.get("fusion")
        self.neighboring = affines.get("neighboring")


@dataclass
class GlobalDescriptor:
    """Per-level pooled descriptors, their concatenation and one
    degenerate-norm flag per block; each carries the batch axis of the
    views, if they had one."""

    blocks: list
    concat: Tensor
    degenerate: list


def hierarchy_depth(num_views: int, stride: int,
                    depth: int | None = None) -> int:
    """Coarsening levels of a ring of `num_views` views cut by `stride`:
    `depth`, or the deepest valid one (at least 1) when it is None.  A
    depth of 0 is a plan of one level with no coarsening.  The one
    ring-size rule: stride >= 2, and every coarsening level's ring
    divides by the stride and has >= 3 nodes.  Anything else raises
    `ConfigError`."""
    if stride < 2:
        raise ConfigError(f"stride must be >= 2, got {stride}")
    level, n = 0, num_views
    while level != depth and n >= 3 and n % stride == 0:
        level, n = level + 1, n // stride
    if level != (max(level, 1) if depth is None else depth):
        raise ConfigError(
            f"{num_views} views with stride {stride} cannot support depth "
            f"{depth or '>= 1'}: level {level} has {n} nodes, and each level "
            f"needs a ring of >= 3 nodes that divides by the stride")
    return level


class HrgeModel:
    """The hierarchical relational embedding network of one variant: a
    plan of ``levels``, one per coarsening level, or one level with no
    coarsening for a variant without hierarchy (depth 0)."""

    def __init__(self, num_views: int, width: int, variant="full",
                 stride: int = 2, depth: int | None = None, seed: int = 0):
        if isinstance(variant, str):
            variant = VariantSpec.from_name(variant)
        self.depth = hierarchy_depth(num_views, stride,
                                     variant.depth_for(depth))
        ring = len(NEIGHBOR_KINDS[variant.neighbor_kind].shifts)
        if num_views < ring or width < 1:
            raise ConfigError(f"variant {variant.name} needs a ring of >= "
                              f"{ring} views and width >= 1, got {num_views} "
                              f"views of width {width}")
        self.variant, self.num_views, self.width = variant, num_views, width
        self.stride, self.seed = stride, seed
        rng = np.random.default_rng(seed)
        self.levels = [LevelParams(width, rng, variant.neighbor_kind,
                                   variant.use_pairwise, level_stride)
                       for level_stride in [stride] * self.depth or [None]]

    @property
    def descriptor_length(self) -> int:
        return self.num_blocks * self.width

    @property
    def num_blocks(self) -> int:
        return self.depth + 1

    def named_parameters(self):
        return [(f"level{l}.{name}", p) for l, level in enumerate(self.levels)
                for name, p in level.named]

    def parameters(self):
        return [p for _, p in self.named_parameters()]




# The fixed steps of `hrge_forward`, read off `autograd` by name each time
# it runs: the ops themselves (suffix "") or their kernels ("_kernel").
_WALK_OPS = {suffix: operator.attrgetter(*(
    name + suffix for name in ("pair_relation_sum", "ring_affine",
                               "pool_rows", "ring_rows", "concat_cols")))
    for suffix in ("", "_kernel")}
# The ``(weight, bias)`` arrays of an `Affine`, for its kernels.
_AFFINE_ARRAYS = operator.attrgetter("weight.data", "bias.data")


def hrge_forward(model: HrgeModel, views, grad: bool = True
                 ) -> GlobalDescriptor:
    """Run the forward pass over the model's level plan and build the
    global descriptor.

    Per level: pairwise relations update the features, a coarsening level
    pools its block from those updated features, then the neighboring
    module and the coarsening produce the next level's ring.  Coarsening
    by a stride keeps the rows ``stride - 1::stride`` in ring order: with
    1-based indices, new node i is old node ``stride * i``.  The final
    ring is pooled as the last block.  A ``(B, n, w)`` batch of views
    gives ``(B, ...)`` blocks, each row bit-identical to that shape's own
    unbatched forward.

    This is the one walk over the plan, and it runs each step by the name
    of its `autograd` op, looked up on `ag` each time it runs.  With
    ``grad`` it calls the op on tensors; with ``grad=False`` it calls the
    op's kernel, the name with ``_kernel`` appended, on plain arrays, with
    each `Affine` unwrapped to its weight and bias arrays.  Then the
    blocks and the concatenation are leaf tensors with the bits of the
    graph's, and no graph node, backward closure or pair activation is
    kept.
    """
    views = as_tensor(views)
    shape = views.data.shape
    if len(shape) not in (2, 3) or shape[-2:] != (model.num_views,
                                                  model.width):
        raise ShapeMismatchError(
            f"expected a {model.num_views} x {model.width} view matrix "
            f"or a batch of them, got shape {views.shape}")
    if grad:
        x, suffix, unwrap = views, "", tuple
    else:
        x, suffix, unwrap = views.data, "_kernel", _AFFINE_ARRAYS
    pair_relation_sum, ring_affine, pool_rows, ring_rows, concat_cols = (
        _WALK_OPS[suffix](ag))
    normalize, pooled = model.variant.normalize_blocks, []
    for level in model.levels:
        if level.pairwise is not None:
            summed = pair_relation_sum(
                x, [unwrap(layer) for layer in level.pairwise])
            x = ring_affine([(x, 0), (summed, 0)], *unwrap(level.fusion))
        if level.stride:
            pooled.append(pool_rows(x, normalize))
        kind = level.neighbor
        if kind.op is not None:
            x = getattr(ag, kind.op + suffix)(
                [(x, shift) for shift in kind.shifts],
                *(unwrap(level.neighboring) if kind.learned else ()))
        if level.stride:
            x = ring_rows(x, level.stride - 1, level.stride)
    pooled.append(pool_rows(x, normalize))
    blocks, flags = map(list, zip(*pooled))
    concat = concat_cols(blocks) if len(blocks) > 1 else blocks[0]
    if not grad:
        blocks = [Tensor(block) for block in blocks]
        concat = Tensor(concat) if len(blocks) > 1 else blocks[0]
    return GlobalDescriptor(blocks=blocks, concat=concat, degenerate=flags)
