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
"""

from __future__ import annotations

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
            self.grad = g if fresh else np.array(
                np.broadcast_to(g, self.data.shape), dtype=np.float64)
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


def _unbroadcast(g, shape):
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, _parents=(a, b))

    def _backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    out._grad_fn = _backward
    return out


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data * c, _parents=(a,))
    out._grad_fn = lambda g: a._accumulate(g * c)
    return out


def relu(a) -> Tensor:
    """Rectifier that lets NaN through instead of mapping it to 0.

    The gradient mask comes from the output (``max(a, 0) > 0`` is
    ``a > 0``, NaN included).  When `a` is an op's output, the rectifier
    takes that op's place in the graph and hands it the masked gradient,
    so the graph does not keep the input array alive.
    """
    a = as_tensor(a)
    y = np.maximum(a.data, 0.0)
    if a._grad_fn is None:
        parents, sink = (a,), lambda g: a._accumulate(g, fresh=True)
    else:
        parents, sink = a._parents, a._grad_fn
    return Tensor(y, _parents=parents, _grad_fn=lambda g: sink(g * (y > 0.0)))


def maximum(a, b) -> Tensor:
    """Element-wise max; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data >= b.data
    out = Tensor(np.where(mask, a.data, b.data), _parents=(a, b))

    def _backward(g):
        a._accumulate(g * mask)
        b._accumulate(g * ~mask)

    out._grad_fn = _backward
    return out


def _rows(a):
    """View of `a` with every leading axis folded into the rows."""
    return a.reshape(-1, a.shape[-1])


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
    y = np.matmul(x.data, weight.data.T)
    y += bias.data
    out = Tensor(y, _parents=(x, weight, bias))

    def _backward(g):
        x._accumulate(np.matmul(g, weight.data), fresh=True)
        weight._accumulate(_rows(g).T @ _rows(x.data))
        bias._accumulate(_rows(g).sum(axis=0))

    out._grad_fn = _backward
    return out


# Bytes of one pair-level array that `pair_relation_sum` works on at a
# time: about one shape at n=80 and width 32, a whole batch of 16 at n=12.
PAIR_GROUP_BYTES = 2 * 2**20


def pair_relation_sum(x, layers) -> Tensor:
    """Per row i, the sum over j != i of an MLP of the row pair ``[x_i, x_j]``.

    ``layers`` holds the ``(weight, bias)`` of each MLP layer, weights of
    shape (out, in), with a rectifier between consecutive layers; the
    first layer takes the ``2 w`` columns of a pair of width-w rows.
    Returns the ``(..., n, out)`` sums.

    The first layer is factored: ``x W[:, :w]^T`` and ``x W[:, w:]^T + b``
    are computed once per row and broadcast-added, so the concatenated
    pairs are never built.  Each row's ``n - 1`` relations are sorted per
    column before they are summed, so the sums do not depend on the order
    of the rows.

    Only `x` and the layers are kept for backward, which recomputes the
    pair activations.  Both passes run over groups of shapes whose pair
    rows fit ``PAIR_GROUP_BYTES`` per array, so the pair-level memory does
    not grow with the batch; every matrix product is one GEMM per shape
    whatever the group, so the result does not depend on the grouping.
    """
    x = as_tensor(x)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    if (x.data.ndim not in (2, 3) or len(layers) < 2
            or 2 * x.data.shape[-1] != layers[0][0].data.shape[1]):
        raise ShapeMismatchError(
            f"pairs of rows of {x.shape} do not match an MLP whose first "
            f"weight has shape {layers[0][0].shape} ({len(layers)} layers)")
    n, width = x.data.shape[-2:]
    xs = x.data.reshape(-1, n, width)
    hidden = max(w.data.shape[0] for w, _ in layers)
    size = max(1, PAIR_GROUP_BYTES // max(1, 8 * n * (n - 1) * hidden))
    groups = [slice(s, s + size) for s in range(0, len(xs), size)]
    out = np.empty((len(xs), n, layers[-1][0].data.shape[0]))
    arrays = [(w.data, b.data) for w, b in layers]
    for s in groups:
        h = _pair_activations(xs[s], arrays[:-1])[-1]
        w_last, b_last = arrays[-1]
        relations = np.matmul(h, w_last.T)
        relations += b_last
        out[s] = _sorted_sum(_by_node(relations, n))
    parents = (x, *(t for layer in layers for t in layer))
    result = Tensor(out.reshape(*x.data.shape[:-1], -1), _parents=parents)

    def _backward(g):
        g = g.reshape(-1, n, g.shape[-1])
        arrays = [(w.data, b.data) for w, b in layers]
        grads = [[0.0, 0.0] for _ in layers]
        gx = np.empty_like(xs)
        for s in groups:
            acts = _pair_activations(xs[s], arrays[:-1])
            # Every relation of row i gets row i's gradient, so the last
            # layer's terms are reduced over each row's pairs first.
            g_rows = _rows(g[s])
            grads[-1][0] += g_rows.T @ _rows(_by_node(acts[-1], n).sum(axis=2))
            grads[-1][1] += (n - 1) * g_rows.sum(axis=0)
            g_act = np.matmul(g[s], arrays[-1][0])[:, :, None, :]
            gy = (g_act * (_by_node(acts[-1], n) > 0.0)).reshape(
                acts[-1].shape)
            for k in range(len(layers) - 2, 0, -1):
                grads[k][0] += _rows(gy).T @ _rows(acts[k - 1])
                grads[k][1] += _rows(gy).sum(axis=0)
                gy = np.matmul(gy, arrays[k][0])
                gy *= acts[k - 1] > 0.0
            del acts
            g_left = _by_node(gy, n).sum(axis=2)
            g_right = _right_node_sum(gy, n)
            w0, rows = arrays[0][0], _rows(xs[s])
            gx[s] = (np.matmul(g_left, w0[:, :width])
                     + np.matmul(g_right, w0[:, width:]))
            grads[0][0] += np.concatenate(
                [_rows(g_left).T @ rows, _rows(g_right).T @ rows], axis=1)
            grads[0][1] += _rows(g_right).sum(axis=0)
        x._accumulate(gx.reshape(x.data.shape), fresh=True)
        for (w, b), (gw, gb) in zip(layers, grads):
            w._accumulate(gw, fresh=True)
            b._accumulate(gb, fresh=True)

    result._grad_fn = _backward
    return result


def _pair_activations(xs, layers):
    """Rectified outputs of `layers` over every ordered row pair of each
    ``(n, w)`` shape in `xs`: one ``(g, n (n - 1), h)`` array per layer,
    whose row ``i (n - 1) + k`` pairs row i with the k-th other row."""
    (w0, b0), *rest = layers
    _, n, width = xs.shape
    left = np.matmul(xs, w0[:, :width].T)
    right = np.matmul(xs, w0[:, width:].T)
    right += b0
    others = np.flatnonzero(~np.eye(n, dtype=bool)) % n
    h = np.take(right, others, axis=-2)
    pairs = _by_node(h, n)
    pairs += left[:, :, None, :]
    np.maximum(h, 0.0, out=h)
    acts = [h]
    for w, b in rest:
        h = np.matmul(h, w.T)
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _by_node(pairs, n):
    """View of ``(g, n (n - 1), h)`` pair rows as ``(g, n, n - 1, h)``."""
    return pairs.reshape(pairs.shape[0], n, n - 1, pairs.shape[-1])


def _right_node_sum(g, n):
    """Sum of the ``(G, n (n - 1), h)`` pair rows per right-hand node.

    Row ``i (n - 1) + k`` pairs row i with row ``k + (k >= i)``.  Cut into
    ``n - 1`` chunks of n rows, each chunk given a zero row at its end and
    the whole given one zero row in front, the rows become the dense
    ``(n, n)`` pair grid with a zero diagonal, which sums over its left
    node with no scatter.
    """
    count, _, h = g.shape
    grid = np.empty((count, n * n, h))
    grid[:, 0] = 0.0
    body = grid[:, 1:].reshape(count, n - 1, n + 1, h)
    body[:, :, :n] = g.reshape(count, n - 1, n, h)
    body[:, :, n] = 0.0
    return grid.reshape(count, n, n, h).sum(axis=1)


def _sorted_sum(grouped):
    """Sum over axis -2 after sorting it in place, so the sum does not
    depend on the order of the summed rows."""
    grouped.sort(axis=-2)
    return grouped.sum(axis=-2)


def take_rows(a, idx) -> Tensor:
    """Rows ``idx`` of `a` along axis -2."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(np.take(a.data, idx, axis=-2), _parents=(a,))

    def _backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(np.moveaxis(ga, -2, 0), idx, np.moveaxis(g, -2, 0))
        a._accumulate(ga)

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


def concat_cols(tensors) -> Tensor:
    """Concatenate along the last axis."""
    tensors = [as_tensor(t) for t in tensors]
    widths = [t.data.shape[-1] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1),
                 _parents=tuple(tensors))

    def _backward(g):
        off = 0
        for t, w in zip(tensors, widths):
            t._accumulate(g[..., off:off + w])
            off += w

    out._grad_fn = _backward
    return out


def stack_rows(tensors) -> Tensor:
    """Stack 1-D tensors into a matrix, one per row."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors]), _parents=tuple(tensors))

    def _backward(g):
        for k, t in enumerate(tensors):
            t._accumulate(g[k])

    out._grad_fn = _backward
    return out


def maxpool_rows(a):
    """Column-wise max over the rows (axis -2).

    Returns ``(tensor, argmax)`` where argmax holds the first maximal row
    index per column (the first NaN, if any); the gradient is routed there
    exclusively.
    """
    a = as_tensor(a)
    if a.data.ndim < 2 or a.data.shape[-2] < 1:
        raise EmptyInputError(f"maxpool_rows needs a non-empty matrix, got {a.shape}")
    arg = a.data.argmax(axis=-2)[..., None, :]
    out = Tensor(np.take_along_axis(a.data, arg, axis=-2)[..., 0, :],
                 _parents=(a,))

    def _backward(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, arg, g[..., None, :], axis=-2)
        a._accumulate(ga)

    out._grad_fn = _backward
    return out, arg[..., 0, :]


DEGENERATE_NORM = 1e-12


def l2_normalize(v):
    """Scale each vector along the last axis to unit norm.

    Returns ``(tensor, degenerate)``; a vector whose norm is below
    ``DEGENERATE_NORM`` passes through unchanged and its entry of the
    boolean ``degenerate`` array (0-d for a single vector) is set instead
    of raising.
    """
    v = as_tensor(v)
    norm = np.sqrt(np.sum(v.data * v.data, axis=-1, keepdims=True))
    degenerate = norm < DEGENERATE_NORM
    norm = np.where(degenerate, 1.0, norm)
    unit = v.data / norm
    out = Tensor(unit, _parents=(v,))

    def _backward(g):
        proj = np.sum(unit * g, axis=-1, keepdims=True)
        v._accumulate(np.where(degenerate, g, (g - unit * proj) / norm))

    out._grad_fn = _backward
    return out, degenerate[..., 0]


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
    for k, lab in enumerate(labels):
        if not 0 <= lab < num_classes:
            raise LabelError(
                f"label {lab} at index {k} outside [0, {num_classes})"
            )
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss_val = np.mean(lse - shifted[np.arange(batch), labels])
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    out = Tensor(loss_val, _parents=(logits,))

    def _backward(g):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        logits._accumulate(grad * (float(g) / batch))

    out._grad_fn = _backward
    return out
