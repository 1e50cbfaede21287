"""Reverse-mode automatic differentiation over dense float64 arrays.

A `Tensor` wraps a numpy array and remembers how it was produced; calling
``backward()`` on a scalar loss walks the graph in reverse topological order
and accumulates gradients into the ``grad`` buffer of every leaf (a tensor
no op produced, such as a parameter or an input).  The op set is
deliberately small: exactly what the relational embedding network and its
classifier head need.

The row ops act on the last two axes, rows (graph nodes) on axis -2 and
features on axis -1, so each accepts an optional leading batch axis and
treats every batch item on its own.

Every op of the model and its head has one name and one array kernel of
its forward math, the name with a ``_kernel`` suffix (``affine_kernel``,
``pair_relation_sum_kernel``, ``ring_affine_kernel``, ``ring_max_kernel``,
``ring_mean_kernel``, ``ring_rows_kernel``, ``pool_rows_kernel``,
``concat_cols_kernel``).  The op checks its inputs, runs its kernel,
asking it to save what the backward needs, and adds the backward;
inference (`graph.hrge_forward` with ``grad=False`` and the head in
`training.predict_batch`) calls the kernels directly on arrays the
model's plan has already shaped, and builds no node.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading

import numpy as np

from .errors import (
    EmptyInputError,
    LabelError,
    ShapeMismatchError,
    StaleGraphError,
)


class Tensor:
    """A node in a dynamically built computation graph (float64 only)."""

    __slots__ = ("data", "grad", "_parents", "_grad_fn", "_spent")

    def __init__(self, data, _parents=(), _grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._grad_fn = _grad_fn
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g, fresh=False):
        """Add `g` into grad.  A `fresh` g is a new array of this node's
        shape that nothing else holds; it becomes the buffer uncopied."""
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def backward(self):
        """Accumulate d(self)/d(node) into every reachable node's grad."""
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward needs a scalar, got shape {self.shape}"
            )
        order = _toposort(self)
        for node in order:
            if node._grad_fn is not None and node._spent:
                raise StaleGraphError(
                    "backward was already run on this graph; "
                    "rerun the forward pass first"
                )
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._grad_fn is not None:
                # Only leaves keep their gradient: an inner node's is
                # dropped once handed to its grad_fn, so the pass holds the
                # frontier's gradients rather than every node's.
                node._spent = True
                g, node.grad = node.grad, None
                node._grad_fn(g)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _toposort(root):
    order, seen = [], set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _rows(a):
    """View of `a` with every leading axis folded into the rows."""
    return a.reshape(-1, a.shape[-1])


def affine_kernel(x, weight, bias):
    """The forward of `affine` on arrays."""
    y = np.matmul(x, weight.T)
    y += bias
    return y


def affine(x, weight, bias) -> Tensor:
    """x @ weight.T + bias over the last axis, with weight of shape (out, in).

    A batched ``(B, M, in)`` input runs as a stacked matmul, one GEMM of
    M rows per item.  The weight gradient folds the batch into one GEMM.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim not in (2, 3):
        raise ShapeMismatchError(
            f"affine input must be 2-D or batched 3-D, got {x.shape}")
    if x.data.shape[-1] != weight.data.shape[1]:
        raise ShapeMismatchError(
            f"input has {x.data.shape[-1]} columns but weight expects "
            f"{weight.data.shape[1]}"
        )
    out = Tensor(affine_kernel(x.data, weight.data, bias.data),
                 _parents=(x, weight, bias))

    def _backward(g):
        x._accumulate(np.matmul(g, weight.data), fresh=True)
        weight._accumulate(_rows(g).T @ _rows(x.data))
        bias._accumulate(_rows(g).sum(axis=0))

    out._grad_fn = _backward
    return out


def ring_affine_kernel(parts, weight, bias, saved=None):
    """The forward of `ring_affine` on arrays: ``(array, shift)`` parts,
    an ``(out, in)`` weight array and a bias array.  When `saved` is a
    list, the joined input is appended to it."""
    x = np.concatenate(_turned(parts), axis=-1)
    y = affine_kernel(x, weight, bias)
    np.maximum(y, 0.0, out=y)
    if saved is not None:
        saved.append(x)
    return y


def ring_affine(parts, weight, bias) -> Tensor:
    """``max(concat(parts) @ weight.T + bias, 0)`` over the last axis, as
    one node, with weight of shape (out, in).

    The parts are turned as `_turned` turns them, joined into one array
    and run through `affine_kernel`, and the rectifier ``max(y, 0)`` lets
    NaN through, so the output has the bits of a chain of `ring_rows`,
    `concat_cols`, `affine` and such a rectifier.  The backward hands out
    the parts' gradients in that chain's order too, and its rectifier
    mask ``y > 0`` passes no gradient at NaN.
    """
    tensors, arrays, hand_back = _ring_parts(parts)
    weight, bias = as_tensor(weight), as_tensor(bias)
    widths = [a.shape[-1] for a, _ in arrays]
    if sum(widths) != weight.data.shape[1]:
        raise ShapeMismatchError(
            f"parts of widths {widths} do not join into the input of a "
            f"weight of shape {weight.shape}")
    saved = []
    y = ring_affine_kernel(arrays, weight.data, bias.data, saved)
    [x] = saved
    out = Tensor(y, _parents=(*tensors, weight, bias))

    def _backward(g):
        g = g * (y > 0.0)
        gx = np.matmul(g, weight.data)
        hand_back([gx[..., end - width:end] for width, end
                   in zip(widths, itertools.accumulate(widths))])
        weight._accumulate(_rows(g).T @ _rows(x), fresh=True)
        bias._accumulate(_rows(g).sum(axis=0), fresh=True)

    out._grad_fn = _backward
    return out


def ring_max_kernel(parts, saved=None):
    """The forward of `ring_max` on ``(array, shift)`` parts.  When
    `saved` is a list, the boolean array of each step's ``>=`` is
    appended to it, first step first."""
    turned = _turned(parts)
    out = turned[0]
    for part in turned[1:]:
        keep = out >= part
        out = np.where(keep, out, part)
        if saved is not None:
            saved.append(keep)
    return out


def ring_max(parts) -> Tensor:
    """Element-wise max of the parts, turned as `_turned` turns them, as
    one node, folded in order: each step keeps the running max where it
    is ``>=`` the next part, so a tie goes to the first tied part, a NaN
    part wins its step and a NaN running max loses the next.  The
    backward splits each step's gradient as ``g * keep`` and
    ``g * ~keep``, from the last step to the first."""
    tensors, arrays, hand_back = _ring_parts(parts)
    keeps = []
    result = Tensor(ring_max_kernel(arrays, keeps), _parents=tensors)

    def _backward(g):
        grads = [g]
        for keep in reversed(keeps):
            grads[:1] = grads[0] * keep, grads[0] * ~keep
        hand_back(grads)

    result._grad_fn = _backward
    return result


def ring_mean_kernel(parts):
    """The forward of `ring_mean` on ``(array, shift)`` parts."""
    turned = _turned(parts)
    return functools.reduce(np.add, turned) * (1.0 / len(turned))


def ring_mean(parts) -> Tensor:
    """The parts, turned as `_turned` turns them, summed in order and
    times the rounded reciprocal of their count, as one node:
    ``((p0 + p1) + p2) * (1.0 / 3.0)`` for three, which is not a division
    by 3.  Each part's gradient is the output's times that reciprocal."""
    tensors, arrays, hand_back = _ring_parts(parts)
    share = 1.0 / len(arrays)
    out = Tensor(ring_mean_kernel(arrays), _parents=tensors)
    out._grad_fn = lambda g: hand_back([g * share] * len(arrays))
    return out


def _turned(parts):
    """The arrays of `parts`, ``(array, shift)`` pairs of matrices, or
    batches of them, with the same n rows (axis -2), turned as
    `ring_rows` turns them: row i is row ``(i + shift) % n``."""
    return [_ring_take(a, shift) for a, shift in parts]


def _ring_parts(parts):
    """The tensors of `parts`, ``(tensor, shift)`` pairs of matrices, or
    batches of them, with the same n rows (axis -2); the
    ``(array, shift)`` parts of their data, for a ring kernel; and
    ``hand_back(grads)``, which adds the parts' gradients, turned back,
    in the order of the chain of `ring_rows` nodes a ring op replaces:
    unturned parts first, then turned parts last first."""
    parts = [(as_tensor(t), shift) for t, shift in parts]
    shapes = [t.data.shape for t, _ in parts]
    if (len(shapes[0]) not in (2, 3) or shapes[0][-2] < 1
            or any(s[:-1] != shapes[0][:-1] for s in shapes)):
        raise ShapeMismatchError(
            f"parts of shapes {shapes} do not share their rows")

    def hand_back(grads):
        n = shapes[0][-2]
        turned = [k for k, (_, shift) in enumerate(parts) if shift % n]
        unturned = [k for k in range(len(parts)) if k not in turned]
        for k in unturned + turned[::-1]:
            t, shift = parts[k]
            t._accumulate(_ring_take(grads[k], -shift), fresh=k in turned)

    return (tuple([t for t, _ in parts]),
            [(t.data, shift) for t, shift in parts], hand_back)


def _ring_take(a, shift):
    """The n rows (axis -2) of `a` turned by `shift`: row i is row
    ``(i + shift) % n``.  No turn gives `a` itself."""
    n = a.shape[-2]
    return a.take(_ring_index(n, shift), axis=-2) if shift % n else a


@functools.lru_cache(maxsize=None)
def _ring_index(n, shift, stride=1):
    """Row indices ``(shift + stride k) % n`` for k in ``range(n // stride)``."""
    index = (shift + stride * np.arange(n // stride)) % n
    index.flags.writeable = False
    return index


# Bytes of one pair-level array that `pair_relation_sum` works on at a
# time: about one shape at n=80 and width 32, a whole batch of 16 at n=12.
PAIR_GROUP_BYTES = 2 * 2**20


def pair_relation_sum(x, layers) -> Tensor:
    """Per row i, the sum over j != i of an MLP of the row pair ``[x_i, x_j]``.

    ``layers`` holds the ``(weight, bias)`` of each MLP layer, weights of
    shape (out, in), with a rectifier between consecutive layers; the
    first layer takes the ``2 w`` columns of a pair of width-w rows.
    Returns the ``(..., n, out)`` sums.

    Each shape's rows are first put in a canonical order
    (`_canonical_rows`), so that any permutation of them gives the same
    rows and every later step is the same computation.  The pair rows of
    a shape are the ``(n, n)`` grid (`_pair_activations`): row ``j n + i``
    pairs row i with row j.  The first layer is factored, so the
    concatenated pairs are never built.  The last hidden activation's
    diagonal rows, i = j, are zero, so they add nothing to any sum and
    their rectifier mask passes no gradient.  Each row's sum over its
    partners adds whole contiguous ``(n, h)`` slabs in partner order into
    ``S``, and the last layer runs once per row, as
    ``S W_last^T + (n - 1) b_last``.  The backward sums each right-hand
    row's pairs with one stacked matmul by a row of ones.

    Both passes run over groups of shapes whose pair rows fit
    ``PAIR_GROUP_BYTES`` per array (`_pair_groups`), so the pair-level
    memory does not grow with the batch.  A pass of one group keeps its
    pair activations for backward; a pass of several keeps only `x` and
    the layers, and the backward recomputes each group's activations.  The
    backward orders the rows by their bytes and then by their gradients'
    bytes, so that under any permutation the gradients are one computation
    too, equal rows with unequal gradients included; equal rows have equal
    bytes, so the sorted rows and their activations are the forward's.
    Every matrix product is one GEMM per shape whatever the group, so the
    result does not depend on the grouping; the weight gradients, summed
    over groups, do.
    The groups may run on several threads (`_run_groups`): they do not
    depend on the thread count, each writes its own rows, and the weight
    gradients of the groups are kept until the pass ends and added in
    group order, so no bit depends on the thread count.
    """
    x = as_tensor(x)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    if (x.data.ndim not in (2, 3) or len(layers) < 2
            or 2 * x.data.shape[-1] != layers[0][0].data.shape[1]):
        raise ShapeMismatchError(
            f"pairs of rows of {x.shape} do not match an MLP whose first "
            f"weight has shape {layers[0][0].shape} ({len(layers)} layers)")
    arrays, kept = [(w.data, b.data) for w, b in layers], []
    out = pair_relation_sum_kernel(x.data, arrays, kept)
    parents = (x, *(t for layer in layers for t in layer))
    result = Tensor(out, _parents=parents)
    n, width = x.data.shape[-2:]
    xs = x.data.reshape(-1, n, width)
    groups = _pair_groups(len(xs), n, arrays)

    def _backward(g):
        g = g.reshape(len(xs), n, -1)
        places = _canonical_rows(xs, g)
        g = _rows(g)
        gx = np.empty_like(_rows(xs))

        def backward(s):
            """The rows of gx at `places[s]`; returns the group's weight
            and bias gradients, first layer first."""
            rows = _rows(xs).take(places[s], axis=0)
            acts = kept.pop() if kept else _pair_activations(rows, arrays[:-1])
            # The last layer runs on each row's ``S``, whose gradient every
            # pair of the row gets.
            g_sorted = g.take(places[s], axis=0)
            g_rows = _rows(g_sorted)
            grads = [(g_rows.T @ _rows(_by_partner(acts[-1], n).sum(axis=1)),
                      (n - 1) * g_rows.sum(axis=0))]
            # Each gradient takes the buffer of an activation that is no
            # longer needed: the last rectifier's mask and gradient go into
            # its own output, and each layer's input gradient into its
            # input, once the input's mask is taken as a boolean array.
            gy = acts.pop()
            pairs = _by_partner(gy, n)
            np.greater(pairs, 0.0, out=pairs)
            pairs *= np.matmul(g_sorted, arrays[-1][0])[:, None]
            del pairs, g_sorted, g_rows
            for k in range(len(layers) - 2, 0, -1):
                h = acts.pop()
                g_left = _by_partner(gy, n).sum(axis=1)
                grads.append((_rows(gy).T @ _rows(h),
                              _rows(g_left).sum(axis=0)))
                mask = h > 0.0
                gy = np.matmul(gy, arrays[k][0], out=h)
                del h  # the buffer is gy's alone, freed with it below
                gy *= mask
                del mask
            pairs = _by_partner(gy, n)
            g_left = pairs.sum(axis=1)
            g_right = np.matmul(np.ones((1, n)), pairs)[:, :, 0]
            del gy, pairs
            w0, rows = arrays[0][0], _rows(rows)
            gx[places[s]] = (np.matmul(g_left, w0[:, :width])
                             + np.matmul(g_right, w0[:, width:]))
            grads.append((np.concatenate([_rows(g_left).T @ rows,
                                          _rows(g_right).T @ rows], axis=1),
                          _rows(g_right).sum(axis=0)))
            return grads[::-1]

        sums = [[0.0, 0.0] for _ in layers]
        for grads in _run_groups(backward, groups):
            for total, (gw, gb) in zip(sums, grads):
                total[0] += gw
                total[1] += gb
        x._accumulate(gx.reshape(x.data.shape), fresh=True)
        for (w, b), (gw, gb) in zip(layers, sums):
            w._accumulate(gw, fresh=True)
            b._accumulate(gb, fresh=True)

    result._grad_fn = _backward
    return result


def pair_relation_sum_kernel(x, layers, saved=None):
    """The forward of `pair_relation_sum` on arrays: ``(..., n, w)`` rows
    and the ``(weight, bias)`` arrays of each layer.  When `saved` is a
    list and the pass is one group, the group's pair activations are
    appended to it."""
    n, width = x.shape[-2:]
    xs = x.reshape(-1, n, width)
    groups = _pair_groups(len(xs), n, layers)
    places = _canonical_rows(xs)
    w_last, b_last = layers[-1]
    out = np.empty((len(xs) * n, w_last.shape[0]))

    def forward(s):
        acts = _pair_activations(_rows(xs).take(places[s], axis=0),
                                 layers[:-1])
        relations = np.matmul(_by_partner(acts[-1], n).sum(axis=1),
                              w_last.T)
        relations += (n - 1) * b_last
        out[places[s]] = relations
        if saved is not None and len(groups) == 1:
            saved.append(acts)

    _run_groups(forward, groups)
    return out.reshape(*x.shape[:-1], -1)


def _pair_groups(count, n, layers):
    """Slices of the `count` shapes of a pair pass, in order: the fewest
    groups whose pair-level arrays of the widest of `layers`, the
    ``(weight, bias)`` arrays, fit ``PAIR_GROUP_BYTES`` (at least one
    shape each), equal to within one shape.  Group k of g starts at
    shape ``ceil(count k / g)``, so 16 shapes at n=40 and width 32 are
    4 groups of 4, not 5, 5, 5 and 1, and two threads finish together."""
    hidden = max([w.shape[0] for w, _ in layers])
    size = max(1, PAIR_GROUP_BYTES // max(1, 8 * n * n * hidden))
    groups = -(-count // size)
    return [slice(-(-count * k // groups), -(-count * (k + 1) // groups))
            for k in range(groups)]


def _canonical_rows(*parts):
    """The canonical order of the rows of each shape: ``(B, n)`` indices
    into the ``B n`` rows of ``(B, n, .)`` arrays, shape by shape in the
    order of the bytes of the rows of `parts` joined.  That is a total
    order, NaN and -0.0 included, in which only equal rows tie, so any
    permutation of a shape's rows sorts to the same rows."""
    rows = np.concatenate(parts, axis=-1)
    count, n, width = rows.shape
    keys = rows.view(np.dtype((np.void, rows.itemsize * width)))[..., 0]
    order = keys.argsort(axis=-1, kind="stable")
    order += np.arange(0, count * n, n)[:, None]
    return order


# Most threads, the calling one included, that run the groups of one
# `pair_relation_sum` pass.
MAX_PAIR_WORKERS = 4
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
_pool = None


def _pair_workers():
    """Threads for the groups of a pair pass: the usable CPUs over the
    most BLAS threads any of `_BLAS_THREAD_VARS` declares, at most
    ``MAX_PAIR_WORKERS``.  With none declared BLAS counts as using every
    CPU, so there is one thread and the groups run in the caller."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    declared = [int(v) or cpus for v in map(os.environ.get, _BLAS_THREAD_VARS)
                if v is not None and v.strip().isdigit()]
    return max(1, min(MAX_PAIR_WORKERS, cpus // max(declared, default=cpus)))


def _run_groups(task, groups):
    """``[task(group) for group in groups]``.

    The calling thread and, when there are two groups or more, up to
    ``_pair_workers() - 1`` pool threads each take the next group nobody
    has taken as they come free.  Every result is kept until the pass
    ends.  The first error stops the taking of groups and is raised once
    every thread has stopped.  Tasks run numpy and private helpers only,
    each pool thread in a copy of the caller's context, so numpy's
    `np.errstate`, a context variable since numpy 2, holds there too.
    """
    if len(groups) == 1:
        return [task(groups[0])]
    results = [None] * len(groups)
    untaken = iter(range(len(groups)))
    errors = []
    lock = threading.Lock()

    def take():
        with lock:
            return None if errors else next(untaken, None)

    def drain():
        for k in iter(take, None):
            try:
                results[k] = task(groups[k])
            except BaseException as exc:
                with lock:
                    errors.append(exc)

    workers = min(len(groups), _pair_workers())
    helpers = [_executor().submit(contextvars.copy_context().run, drain)
               for _ in range(workers - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[0]
    return results


def _executor():
    """The process's pool for `_run_groups`, created on first use (and
    again in a forked child, whose copy has no threads)."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(
            MAX_PAIR_WORKERS - 1, thread_name_prefix="hrgenet-pairs"))
    return _pool[1]


def _pair_activations(xs, layers):
    """Rectified outputs of `layers` over every row pair of each ``(n, w)``
    shape in `xs`: one ``(g, n n, h)`` array per layer whose row
    ``j n + i`` pairs row i with row j.  The first layer is factored: each
    row's terms as the left and as the right row of a pair are computed
    once, and a pair's pre-activation is ``right_j + left_i``.  The last
    array's diagonal rows, i = j, are zero."""
    (w0, b0), n, width = layers[0], *xs.shape[1:]
    left = np.matmul(xs, w0[:, :width].T)
    right = np.matmul(xs, w0[:, width:].T)
    right += b0
    h = right.repeat(n, axis=1)
    pairs = _by_partner(h, n)
    pairs += left[:, None]
    np.maximum(h, 0.0, out=h)
    acts = [h]
    for w, b in layers[1:]:
        h = np.matmul(h, w.T)
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    h[:, ::n + 1] = 0.0
    return acts


def _by_partner(pairs, n):
    """View of ``(g, n n, h)`` pair rows as ``(g, n, n, h)``: axis 1 is
    the right-hand row j, axis 2 the left-hand row i."""
    return pairs.reshape(pairs.shape[0], n, n, pairs.shape[-1])


def _sorted_sum(grouped):
    """Sum over axis -2 after sorting it in place, so the sum does not
    depend on the order of the summed rows."""
    grouped.sort(axis=-2)
    return grouped.sum(axis=-2)


def ring_rows_kernel(a, shift: int, stride: int = 1):
    """The forward of `ring_rows` on an array."""
    return a.take(_ring_index(a.shape[-2], shift, stride), axis=-2)


def ring_rows(a, shift: int, stride: int = 1) -> Tensor:
    """Rows ``(shift + stride k) % n`` of the n rows (axis -2) of `a`, for
    k in ``range(n // stride)`` and `stride` dividing n, gathered through
    a cached index (`_ring_index`) that the backward scatters through."""
    a = as_tensor(a)
    n = a.data.shape[-2]
    if stride < 1 or n % stride:
        raise ShapeMismatchError(f"stride {stride} does not divide {n} rows")
    out = Tensor(ring_rows_kernel(a.data, shift, stride), _parents=(a,))
    index = _ring_index(n, shift, stride)

    def _backward(g):
        ga = np.zeros_like(a.data)
        ga[..., index, :] = g
        a._accumulate(ga, fresh=True)

    out._grad_fn = _backward
    return out


def segment_sum_rows(a, segments, num_segments: int) -> Tensor:
    """Sum the rows (axis -2) of `a` per segment id.

    Every segment must hold the same, non-zero number of rows.  Each
    column of a segment is sorted before it is summed, so the result is
    bit-identical under any permutation of the rows feeding a segment.
    """
    a = as_tensor(a)
    segments = np.asarray(segments, dtype=np.intp)
    if segments.shape != a.data.shape[-2:-1]:
        raise ShapeMismatchError(
            f"{segments.size} segment ids for {a.data.shape[-2]} rows")
    counts = np.bincount(segments, minlength=num_segments)
    if counts.size != num_segments or np.any(counts == 0):
        raise EmptyInputError(
            f"segment_sum_rows needs non-empty segments 0..{num_segments - 1}")
    if np.any(counts != counts[0]):
        raise ShapeMismatchError(
            f"segment_sum_rows needs equal segments, got sizes {counts}")
    order = np.argsort(segments, kind="stable")
    grouped = np.take(a.data, order, axis=-2).reshape(
        *a.data.shape[:-2], num_segments, counts[0], a.data.shape[-1])
    out = Tensor(_sorted_sum(grouped), _parents=(a,))
    out._grad_fn = lambda g: a._accumulate(np.take(g, segments, axis=-2),
                                            fresh=True)
    return out


def concat_cols_kernel(arrays):
    """The forward of `concat_cols` on arrays."""
    return np.concatenate(arrays, axis=-1)


def concat_cols(tensors) -> Tensor:
    """Concatenate along the last axis."""
    tensors = [as_tensor(t) for t in tensors]
    widths = [t.data.shape[-1] for t in tensors]
    out = Tensor(concat_cols_kernel([t.data for t in tensors]),
                 _parents=tuple(tensors))

    def _backward(g):
        off = 0
        for t, w in zip(tensors, widths):
            t._accumulate(g[..., off:off + w])
            off += w

    out._grad_fn = _backward
    return out


DEGENERATE_NORM = 1e-12


def unit_norm(v, axis=-1):
    """``(unit, (norm, top), degenerate)`` of the vectors along ``axis``
    of `v`, or of all of `v` for None, with ``axis`` kept as length 1.

    ``norm`` has `np.linalg.norm`'s bits, but a finite vector whose norm
    overflows has ``top = max|v|`` and the norm of ``v / top`` (any other
    has ``top = 1.0``).  ``unit`` is ``v / top / norm``, never divided by
    the product, or `v` itself, flagged, where ``norm < DEGENERATE_NORM``.
    Along an axis the norm is `np.linalg.norm`'s arithmetic without its
    argument handling, which would add a microsecond per level block."""
    norm = (np.linalg.norm(v, keepdims=True) if axis is None
            else np.sqrt(np.add.reduce(v * v, axis=axis, keepdims=True)))
    top, scaled = 1.0, v
    # A list search finds inf in a tenth of an array reduction's time.
    if np.inf in norm.ravel().tolist():
        overflow = np.isinf(norm) & np.isfinite(v).all(axis, keepdims=True)
        top = np.where(overflow, np.abs(v).max(axis, keepdims=True), 1.0)
        scaled = v / top
        norm = np.linalg.norm(scaled, axis=axis, keepdims=True)
    degenerate = norm < DEGENERATE_NORM
    unit = np.divide(scaled, norm, out=scaled.copy(), where=~degenerate)
    return unit, (norm, top), degenerate


def pool_rows_kernel(a, normalize: bool, saved=None):
    """The forward of `pool_rows` on an array: ``(pooled, degenerate)``.
    When `saved` is a list, the pooled rows' index and `unit_norm`'s
    ``(norm, top)`` (both None without `normalize`) are appended to it."""
    n, width = a.shape[-2:]
    mats = a.reshape(-1, n, width)
    index = (_ring_index(len(mats), 0)[:, None], mats.argmax(axis=1),
             _ring_index(width, 0))
    pooled = mats[index].reshape(*a.shape[:-2], width)
    if normalize:
        pooled, scale, small = unit_norm(pooled)
    else:
        scale, small = (None, None), np.zeros(pooled.shape[:-1] + (1,), bool)
    if saved is not None:
        saved += [index, scale]
    return pooled, small[..., 0]


def pool_rows(a, normalize: bool):
    """Column-wise max over the rows (axis -2), scaled to unit norm along
    the last axis by `unit_norm` when `normalize` is set.

    Returns ``(tensor, degenerate)``: the flags of `unit_norm` (0-d for
    one matrix, all False without `normalize`), set instead of raising.
    Each column takes its first maximal row (the first NaN, if any), and
    the gradient is routed there exclusively, divided by ``norm`` and
    then by ``top``.
    """
    a = as_tensor(a)
    if a.data.ndim < 2 or a.data.shape[-2] < 1:
        raise EmptyInputError(
            f"pool_rows needs a non-empty matrix, got {a.shape}")
    saved = []
    pooled, degenerate = pool_rows_kernel(a.data, normalize, saved)
    index, (norm, top) = saved
    out = Tensor(pooled, _parents=(a,))

    def _backward(g):
        if normalize:
            proj = np.add.reduce(pooled * g, axis=-1, keepdims=True)
            g = np.divide(g - pooled * proj, norm, out=np.array(g),
                          where=~degenerate[..., None]) / top
        ga = np.zeros(a.data.shape)
        mats = ga.reshape(-1, *a.data.shape[-2:])
        mats[index] = g.reshape(mats.shape[0], mats.shape[2])
        a._accumulate(ga, fresh=True)

    out._grad_fn = _backward
    return out, degenerate


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of softmaxed logits against integer labels.

    Stabilized via log-sum-exp; the backward pass uses the closed form
    (softmax - one_hot) / batch.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeMismatchError(f"logits must be 2-D, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    batch, num_classes = logits.data.shape
    if labels.shape != (batch,):
        raise ShapeMismatchError(
            f"expected {batch} labels, got shape {labels.shape}"
        )
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        k = int(bad.argmax())
        raise LabelError(
            f"label {labels[k]} at index {k} outside [0, {num_classes})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0])
    loss_val = np.mean(lse - shifted[np.arange(batch), labels])
    probs = exp / total
    out = Tensor(loss_val, _parents=(logits,))

    def _backward(g):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        logits._accumulate(grad * (float(g) / batch))

    out._grad_fn = _backward
    return out
