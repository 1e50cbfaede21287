import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrgenet import autograd as ag
from hrgenet.errors import (
    EmptyInputError,
    LabelError,
    ShapeMismatchError,
    StaleGraphError,
)
from hrgenet.layers import Affine, build_affines

from conftest import finite_difference, max_rel_err, relu


def make_layer(weight, bias):
    return Affine(ag.Tensor(np.array(weight, dtype=float)),
                  ag.Tensor(np.array(bias, dtype=float)))


def random_layer(in_dim, out_dim, rng):
    """A freshly initialized affine map from `in_dim` to `out_dim`."""
    return build_affines([("layer", out_dim, in_dim)], rng)[0]["layer"]


def make_mlp(dims, rng):
    """The freshly initialized affine layers of an MLP through `dims`, and
    their named blocks."""
    affines, named = build_affines(
        [(str(k), out_dim, in_dim)
         for k, (in_dim, out_dim) in enumerate(zip(dims, dims[1:]))], rng)
    return list(affines.values()), named


class TestLinearForward:
    """`ag.affine` as a layer's forward, the op the classifier head runs."""

    def test_identity(self):
        layer = make_layer(np.eye(2), [0.0, 0.0])
        out = ag.affine([[3.0, 4.0]], *layer)
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_hand_arithmetic(self):
        layer = make_layer([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
        out = ag.affine([[2.0, 5.0]], *layer)
        np.testing.assert_array_equal(out.data, [[7.0, -3.0]])

    def test_matches_triple_loop_matmul(self, rng):
        # brute-force oracle: naive triple loop product
        x = rng.normal(size=(3, 5))
        layer = random_layer(5, 4, rng)
        expected = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    expected[i, j] += x[i, k] * layer.weight.data[j, k]
                expected[i, j] += layer.bias.data[j]
        out = ag.affine(x, *layer)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_dimension_mismatch_names_both_dims(self, rng):
        layer = random_layer(5, 4, rng)
        with pytest.raises(ShapeMismatchError,
                           match=r"6 columns but weight expects 5"):
            ag.affine(np.zeros((3, 6)), *layer)


class TestBackward:
    def test_linear_gradient_pattern(self):
        # loss = sum of the affine output with identity weights
        layer = make_layer(np.eye(2), [0.0, 0.0])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        for p in layer:
            p.zero_grad()
        out = ag.affine(x, *layer)
        col_sums = ag.affine(out, *make_layer([[1.0, 1.0]], [0.0]))
        scalar = ag.segment_sum_rows(col_sums, [0, 0], 1)
        scalar.backward()
        np.testing.assert_allclose(layer.weight.grad,
                                   np.tile(x.sum(axis=0), (2, 1)))
        np.testing.assert_allclose(layer.bias.grad, [2.0, 2.0])

    def test_gradients_match_finite_differences(self, rng):
        mlp, named = make_mlp([3, 4, 4, 2], rng)
        head = random_layer(2, 3, rng)
        x = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])

        def loss_fn():
            h = x
            for layer in mlp[:-1]:
                h = relu(ag.affine(h, *layer))
            out = ag.affine(h, *mlp[-1])
            return ag.softmax_cross_entropy(ag.affine(out, *head), labels)

        params = [p for _, p in named] + list(head)
        for p in params:
            p.zero_grad()
        loss_fn().backward()
        for p in params:
            numeric = finite_difference(loss_fn, p)
            assert max_rel_err(p.grad, numeric) < 1e-4

    def test_zero_upstream_gives_zero_parameter_grads(self, rng):
        layer = random_layer(2, 2, rng)
        for p in layer:
            p.zero_grad()
        out = ag.affine(np.ones((1, 2)), *layer)
        # a reducer that weighs the whole output by zero
        reducer = make_layer([[0.0, 0.0]], [0.0])
        scalar = ag.affine(out, *reducer)
        scalar.backward()
        np.testing.assert_array_equal(layer.weight.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(layer.bias.grad, np.zeros(2))

    def test_only_leaves_keep_gradients(self):
        x = ag.Tensor([[1.0, -2.0]])
        hidden = relu(x)
        loss = ag.softmax_cross_entropy(hidden, [0])
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, [[-1.0 / (np.e + 1.0), 0.0]])

    def test_gradient_reaching_a_leaf_twice_is_summed(self):
        x = ag.Tensor([[1.0, -2.0]])
        # Two rectifier paths from x, joined and summed by one layer.
        summed = ag.affine(ag.concat_cols([relu(x), relu(x)]),
                           *make_layer([[1.0, 0.0, 1.0, 0.0],
                                        [0.0, 1.0, 0.0, 1.0]], [0.0, 0.0]))
        loss = ag.softmax_cross_entropy(summed, [0])
        loss.backward()
        np.testing.assert_allclose(
            x.grad, [[-2.0 / (np.exp(2.0) + 1.0), 0.0]])

    def test_backward_twice_raises_stale_error(self, rng):
        layer = random_layer(2, 1, rng)
        out = ag.affine(np.ones((1, 2)), *layer)
        out.backward()
        with pytest.raises(StaleGraphError):
            out.backward()

    def test_backward_needs_scalar(self, rng):
        layer = random_layer(2, 2, rng)
        out = ag.affine(np.ones((1, 2)), *layer)
        with pytest.raises(ShapeMismatchError):
            out.backward()


class TestSegmentSumRows:
    def test_matches_loop_sum_for_interleaved_segments(self, rng):
        a = rng.normal(size=(2, 6, 3))
        segments = [1, 0, 2, 1, 0, 2]
        out = ag.segment_sum_rows(a, segments, 3)
        for b in range(2):
            for s in range(3):
                rows = a[b][np.array(segments) == s]
                np.testing.assert_allclose(out.data[b, s], rows.sum(axis=0),
                                           atol=1e-15)

    def test_unequal_segments_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ag.segment_sum_rows(np.zeros((3, 2)), [0, 0, 1], 2)

    def test_segment_ids_must_cover_every_row(self):
        with pytest.raises(ShapeMismatchError):
            ag.segment_sum_rows(np.zeros((3, 2)), [0, 1], 2)

    def test_empty_segment_rejected(self):
        with pytest.raises(EmptyInputError):
            ag.segment_sum_rows(np.zeros((2, 2)), [0, 0], 2)


class TestRelu:
    """The test helpers' rectifier, which the unfused oracles build on."""

    def test_nan_propagates(self):
        out = relu([[np.nan, -1.0, 2.0]])
        assert np.isnan(out.data[0, 0])
        np.testing.assert_array_equal(out.data[0, 1:], [0.0, 2.0])

    def test_gradient_is_the_positive_mask(self):
        a = ag.Tensor([[-1.0, 0.0, 3.0]])
        out = ag.segment_sum_rows(
            ag.affine(relu(a), *make_layer([[1.0, 1.0, 1.0]], [0.0])),
            [0], 1)
        out.backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 0.0, 1.0]])


def unfused_pair_relation_sum(x, layers):
    """The pair path as separate numpy steps over the whole batch: each
    shape's rows in the order of their bytes, the factored first layer,
    rectifiers, the hidden layers over all pair rows, the per-node sum in
    that order, then the last layer once per node, scattered back to the
    rows' own places."""
    (w0, b0), *hidden, (w_last, b_last) = [(w.data, b.data)
                                           for w, b in layers]
    *lead, n, width = x.shape
    keys = np.ascontiguousarray(x).view(np.dtype((np.void, 8 * width)))
    order = np.argsort(keys[..., 0], axis=-1, kind="stable")[..., None]
    xs = np.take_along_axis(x, order, axis=-2)
    others = np.flatnonzero(~np.eye(n, dtype=bool)) % n
    left = np.matmul(xs, w0[:, :width].T)
    right = np.matmul(xs, w0[:, width:].T)
    right += b0
    pairs = np.take(right, others, axis=-2).reshape(*lead, n, n - 1, -1)
    pairs += left[..., :, None, :]
    h = np.maximum(pairs.reshape(*lead, n * (n - 1), -1), 0.0)
    for w, b in hidden:
        h = np.matmul(h, w.T)
        h += b
        h = np.maximum(h, 0.0)
    summed = h.reshape(*lead, n, n - 1, -1).sum(axis=-2)
    relations = np.matmul(summed, w_last.T)
    relations += (n - 1) * b_last
    out = np.empty_like(relations)
    np.put_along_axis(out, order, relations, axis=-2)
    return out


class TestPairRelationSum:
    @pytest.mark.parametrize("group_bytes", [1, ag.PAIR_GROUP_BYTES])
    def test_bitwise_equal_to_unfused_steps(self, rng, monkeypatch,
                                            group_bytes):
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", group_bytes)
        layers, _ = make_mlp([64, 32, 32, 32], rng)
        for layer in layers:
            layer.bias.data += rng.normal(scale=0.1, size=32)
        x = rng.normal(size=(5, 12, 32))
        np.testing.assert_array_equal(ag.pair_relation_sum(x, layers).data,
                                      unfused_pair_relation_sum(x, layers))
        np.testing.assert_array_equal(ag.pair_relation_sum(x[2], layers).data,
                                      unfused_pair_relation_sum(x[2], layers))
        x = rng.normal(size=(1, 80, 32))
        np.testing.assert_array_equal(ag.pair_relation_sum(x, layers).data,
                                      unfused_pair_relation_sum(x, layers))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("group_bytes", [1, ag.PAIR_GROUP_BYTES])
    @pytest.mark.parametrize("case", ["duplicates", "signed_zeros", "nan"])
    def test_row_permutation_is_bitwise_equivariant(self, monkeypatch, case,
                                                    group_bytes, workers):
        """Permuting the rows permutes the sums and the gradient of x, and
        keeps the weight gradients, bit for bit, also where the canonical
        order meets equal rows, rows that differ only by the sign of a
        zero, or a NaN."""
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", group_bytes)
        monkeypatch.setattr(ag, "_pair_workers", lambda: workers)
        rng = np.random.default_rng(45)
        layers, named = make_mlp([8, 6, 5, 3], rng)
        for layer in layers:
            layer.bias.data += rng.normal(scale=0.1, size=layer.bias.shape)
        x = rng.normal(size=(3, 7, 4))
        if case == "duplicates":
            x[:, 4] = x[:, 6] = x[:, 1]
        elif case == "signed_zeros":
            x[:, 5] = x[:, 2]
            x[:, 2, 0], x[:, 5, 0] = 0.0, -0.0
        else:
            x[:, 3, 1] = np.nan
        upstream = rng.normal(size=(3, 7, 3))
        perm = np.array([6, 2, 4, 0, 5, 1, 3])

        def run(views, up):
            views = ag.Tensor(views)
            for _, p in named:
                p.grad = None
            out = ag.pair_relation_sum(views, layers)
            dot_loss(out, up).backward()
            return out.data, views.grad, [p.grad for _, p in named]

        for views, up in ((x, upstream), (x[1], upstream[1])):
            with np.errstate(invalid="ignore"):
                out, grad, weights = run(views, up)
                p_out, p_grad, p_weights = run(views[..., perm, :],
                                               up[..., perm, :])
            for a, b in [(out[..., perm, :], p_out),
                         (grad[..., perm, :], p_grad),
                         *zip(weights, p_weights)]:
                np.testing.assert_array_equal(a.view(np.uint64),
                                              b.view(np.uint64))

    @pytest.mark.parametrize("group_bytes", [1, ag.PAIR_GROUP_BYTES])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_pair_grid_matches_a_loop_over_pairs(self, monkeypatch, n,
                                                 group_bytes):
        """Row ``j n + i`` of the pair grid pairs row i with row j: the
        first activation there is ``relu(right_j + left_i)``, and the last
        activation's diagonal rows are zero.  The sums of the pair rows
        per left-hand and per right-hand row, which give the sums, the
        gradient of x and the first weight's two halves, equal a loop over
        the pairs (i, j != i).  Integer entries make every order of
        summation exact."""
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", group_bytes)
        rng = np.random.default_rng(n)

        def ints(*shape):
            return rng.integers(-3, 4, size=shape).astype(np.float64)

        dims, width = [8, 6, 5, 3], 4
        arrays = [(ints(out, inp), ints(out))
                  for inp, out in zip(dims, dims[1:])]
        x, upstream = ints(3, n, width), ints(3, n, dims[-1])
        acts = ag._pair_activations(x, arrays[:-1])
        w0, b0 = arrays[0]
        for i in range(n):
            for j in range(n):
                right = x[:, j] @ w0[:, width:].T + b0
                np.testing.assert_array_equal(
                    acts[0][:, j * n + i],
                    np.maximum(right + x[:, i] @ w0[:, :width].T, 0.0))
            np.testing.assert_array_equal(acts[-1][:, i * n + i], 0.0)

        sums, gx = np.zeros_like(upstream), np.zeros_like(x)
        grads = [[np.zeros_like(w), np.zeros_like(b)] for w, b in arrays]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # The input of each layer: the pair, then rectified outputs.
                hs = [np.concatenate([x[:, i], x[:, j]], axis=-1)]
                for w, b in arrays[:-1]:
                    hs.append(np.maximum(hs[-1] @ w.T + b, 0.0))
                sums[:, i] += hs[-1] @ arrays[-1][0].T + arrays[-1][1]
                g = upstream[:, i]
                for k in range(len(arrays) - 1, -1, -1):
                    grads[k][0] += g.T @ hs[k]
                    grads[k][1] += g.sum(axis=0)
                    g = (g @ arrays[k][0]) * (hs[k] > 0.0 if k else 1.0)
                gx[:, i] += g[:, :width]
                gx[:, j] += g[:, width:]

        views = ag.Tensor(x)
        layers = [(ag.Tensor(w), ag.Tensor(b)) for w, b in arrays]
        out = ag.pair_relation_sum(views, layers)
        dot_loss(out, upstream).backward()
        np.testing.assert_array_equal(out.data, sums)
        np.testing.assert_array_equal(views.grad, gx)
        for (w, b), (gw, gb) in zip(layers, grads):
            np.testing.assert_array_equal(w.grad, gw)
            np.testing.assert_array_equal(b.grad, gb)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dims", [[6, 4, 2], [6, 4, 5, 2],
                                      [6, 4, 5, 3, 2]])
    def test_gradients_match_finite_differences(self, rng, monkeypatch,
                                                dims, workers):
        # One shape per group through MLPs of 2 to 4 layers, on one
        # thread and on two: every layer's mask is taken the same way.
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", 1)
        monkeypatch.setattr(ag, "_pair_workers", lambda: workers)
        layers, named = make_mlp(dims, rng)
        for layer in layers:
            layer.bias.data += rng.normal(scale=0.1, size=layer.bias.shape)
        x = ag.Tensor(rng.normal(size=(3, 5, 3)))
        upstream = rng.normal(size=(3, 5, 2))

        def loss_fn():
            return dot_loss(ag.pair_relation_sum(x, layers), upstream)

        named = [("x", x)] + named
        for _, p in named:
            p.zero_grad()
        loss_fn().backward()
        for name, p in named:
            numeric = finite_difference(loss_fn, p)
            assert max_rel_err(p.grad, numeric) < 1e-6, name

    def test_one_group_keeps_its_activations_for_backward(self, rng,
                                                          monkeypatch):
        """A pass of one group runs the pair activations once, and its
        backward reuses them.  Its gradients equal those of one group per
        shape, whose backward recomputes them: x's bit for bit, the
        layers' to rounding, since those sum over the groups."""
        calls = []
        activations = ag._pair_activations

        def counted(xs, layers):
            calls.append(len(xs))
            return activations(xs, layers)

        monkeypatch.setattr(ag, "_pair_activations", counted)
        layers, named = make_mlp([8, 6, 5, 3], rng)
        for layer in layers:
            layer.bias.data += rng.normal(scale=0.1, size=layer.bias.shape)
        x, upstream = rng.normal(size=(3, 7, 4)), rng.normal(size=(3, 7, 3))
        runs = []
        for group_bytes in (ag.PAIR_GROUP_BYTES, 1):
            monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", group_bytes)
            calls.clear()
            views = ag.Tensor(x)
            for _, p in named:
                p.grad = None
            dot_loss(ag.pair_relation_sum(views, layers), upstream).backward()
            runs.append((list(calls), views.grad,
                         [p.grad for _, p in named]))
        (one_calls, one_gx, one_gw), (per_calls, per_gx, per_gw) = runs
        assert one_calls == [3] and per_calls == [1] * 6
        np.testing.assert_array_equal(one_gx, per_gx)
        for one, per in zip(one_gw, per_gw):
            np.testing.assert_allclose(one, per, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, workers):
        """At n=80 each shape is a group of its own; its rows and the
        gradients of x and of every layer block are the same bits on one
        thread as on several."""
        threads = set()
        activations = ag._pair_activations

        def recorded(*args):
            threads.add(threading.current_thread().name)
            return activations(*args)

        monkeypatch.setattr(ag, "_pair_activations", recorded)
        runs = []
        for count in (1, workers):
            monkeypatch.setattr(ag, "_pair_workers", lambda: count)
            rng = np.random.default_rng(44)
            layers, named = make_mlp([64, 32, 32, 32], rng)
            for layer in layers:
                layer.bias.data += rng.normal(scale=0.1, size=32)
            x = ag.Tensor(rng.normal(size=(6, 80, 32)))
            out = ag.pair_relation_sum(x, layers)
            dot_loss(out, rng.normal(size=out.shape)).backward()
            runs.append([out.data, x.grad] + [p.grad for _, p in named])
        assert len(threads) > 1
        for one, many in zip(*runs):
            np.testing.assert_array_equal(one, many)


def dot_loss(out, upstream):
    """``sum(out * upstream)``: a scalar whose gradient at `out` is the
    dense `upstream`."""
    return ag.Tensor(np.sum(out.data * upstream), _parents=(out,),
                     _grad_fn=lambda g: out._accumulate(g * upstream))


class TestPairWorkers:
    """Threads for the pair groups: usable CPUs over declared BLAS threads."""

    @pytest.mark.parametrize("cpus, env, workers", [
        (2, {}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (2, {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2),
        (8, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4),
        (16, {"MKL_NUM_THREADS": "1"}, ag.MAX_PAIR_WORKERS),
        (4, {"OPENBLAS_NUM_THREADS": "0"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "many"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ])
    def test_worker_count(self, monkeypatch, cpus, env, workers):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert ag._pair_workers() == workers

    def test_each_group_runs_once_in_order_under_contention(self,
                                                             monkeypatch):
        """More workers than cores, switching threads every microsecond:
        every group runs exactly once and the results come in order.  Any
        error in the stressing thread fails the test."""
        monkeypatch.setattr(ag, "_pair_workers", lambda: 4)
        failures = []

        def stress():
            try:
                for _ in range(30):
                    ran = []

                    def task(k):
                        ran.append(k)
                        return k * k

                    results = ag._run_groups(task, range(40))
                    assert results == [k * k for k in range(40)]
                    assert sorted(ran) == list(range(40))
            except BaseException as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=stress, daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and not failures

    def test_error_in_a_group_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ag, "_pair_workers", lambda: 2)

        def task(k):
            if k == 3:
                raise ValueError("group 3")
            return k

        with pytest.raises(ValueError, match="group 3"):
            ag._run_groups(task, list(range(6)))

    def test_pool_threads_run_under_the_callers_errstate(self, monkeypatch):
        """A pool thread takes the caller's `np.errstate`, so an overflow
        in a group warns nowhere when the caller silenced it."""
        monkeypatch.setattr(ag, "_pair_workers", lambda: 2)
        started = threading.Barrier(2, timeout=30)

        def task(k):
            started.wait()  # both threads hold a group
            return threading.get_ident(), np.geterr()["over"]

        with np.errstate(over="ignore"):
            results = ag._run_groups(task, [0, 1])
        assert len({thread for thread, _ in results}) == 2
        assert [over for _, over in results] == ["ignore", "ignore"]

    def test_no_group_starts_after_an_error(self, monkeypatch):
        monkeypatch.setattr(ag, "_pair_workers", lambda: 1)
        ran = []

        def task(k):
            ran.append(k)
            if k == 3:
                raise ValueError("group 3")

        with pytest.raises(ValueError, match="group 3"):
            ag._run_groups(task, list(range(6)))
        assert ran == [0, 1, 2, 3]


class TestRingRows:
    """`ag.ring_rows`: the rows ``(shift + stride k) % n`` of a ring."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)])
    def test_forward_matches_index_oracle(self, rng, shape, shift, stride):
        x = rng.normal(size=shape)
        rows = [(shift + stride * k) % 6 for k in range(6 // stride)]
        out = ag.ring_rows(x, shift, stride)
        np.testing.assert_array_equal(out.data, x[..., rows, :])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)])
    def test_gradient_matches_finite_differences(self, rng, shape, shift,
                                                 stride):
        x = ag.Tensor(rng.normal(size=shape))
        upstream = rng.normal(size=(*shape[:-2], 6 // stride, 3))

        def loss_fn():
            return dot_loss(ag.ring_rows(x, shift, stride), upstream)

        loss_fn().backward()
        assert max_rel_err(x.grad, finite_difference(loss_fn, x)) < 1e-6

    def test_stride_must_divide_rows(self):
        with pytest.raises(ShapeMismatchError, match="stride 4"):
            ag.ring_rows(np.zeros((6, 2)), 1, 4)


def pool_with_rows(a, normalize=False):
    """`ag.pool_rows` of `a`, its degenerate flag, and the row each column
    took, read off where the gradient of the pooled sum lands."""
    a = ag.Tensor(a)
    out, degenerate = ag.pool_rows(a, normalize)
    dot_loss(out, np.ones(out.shape)).backward()
    return out, degenerate, (a.grad != 0.0).argmax(axis=-2)


class TestMaxpoolRows:
    """`ag.pool_rows` without normalization: the column-wise max."""

    def test_hand_case(self):
        out, _, arg = pool_with_rows([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_array_equal(out.data, [3.0, 5.0])
        np.testing.assert_array_equal(arg, [1, 0])

    def test_single_row_is_identity(self):
        out, _, arg = pool_with_rows([[7.0, -1.0, 0.5]])
        np.testing.assert_array_equal(out.data, [7.0, -1.0, 0.5])
        np.testing.assert_array_equal(arg, [0, 0, 0])

    def test_tie_goes_to_first_row(self):
        out, _, arg = pool_with_rows([[2.0], [2.0]])
        assert out.data[0] == 2.0
        assert arg[0] == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInputError):
            ag.pool_rows(np.zeros((0, 3)), False)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_to_row_permutation(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(6, 4))
        out, _, arg = pool_with_rows(x)
        perm = r.permutation(6)
        out_p, _, arg_p = pool_with_rows(x[perm])
        np.testing.assert_array_equal(out.data, out_p.data)
        np.testing.assert_array_equal(x[arg, np.arange(4)],
                                      x[perm][arg_p, np.arange(4)])


class TestL2Normalize:
    """`ag.pool_rows` with normalization, on one pooled row."""

    def test_hand_case(self):
        out, degenerate = ag.pool_rows([[3.0, 4.0]], True)
        np.testing.assert_allclose(out.data, [0.6, 0.8])
        assert not degenerate

    def test_idempotent_on_unit_vectors(self):
        v = np.array([1.0, 0.0, 0.0])
        out, _ = ag.pool_rows([v], True)
        np.testing.assert_allclose(out.data, v)

    def test_zero_vector_flagged_not_thrown(self):
        out, degenerate = ag.pool_rows(np.zeros((1, 4)), True)
        assert degenerate
        np.testing.assert_array_equal(out.data, np.zeros(4))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_output_norm_is_one_or_input_unchanged(self, seed):
        v = np.random.default_rng(seed).normal(size=5)
        out, degenerate = ag.pool_rows([v], True)
        if degenerate:
            np.testing.assert_array_equal(out.data, v)
        else:
            assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12


class TestPoolRows:
    def test_first_nan_is_the_max_and_takes_the_gradient(self):
        nan = np.nan
        out, _, arg = pool_with_rows([[1.0, nan, 0.0], [nan, 2.0, 5.0],
                                      [nan, nan, 4.0]])
        assert np.isnan(out.data[:2]).all() and out.data[2] == 5.0
        np.testing.assert_array_equal(arg, [1, 0, 1])

    def test_degenerate_flag_per_matrix_of_a_batch(self):
        x = np.stack([np.zeros((3, 2)), [[0.0, 3.0], [4.0, 0.0], [1.0, 1.0]]])
        out, degenerate = ag.pool_rows(x, True)
        np.testing.assert_array_equal(degenerate, [True, False])
        np.testing.assert_array_equal(out.data, [[0.0, 0.0], [0.8, 0.6]])
        _, degenerate = ag.pool_rows(x, False)
        np.testing.assert_array_equal(degenerate, [False, False])
        _, degenerate = ag.pool_rows(x[0], True)
        assert degenerate.shape == () and degenerate

    @pytest.mark.parametrize("normalize", [False, True])
    def test_batch_rows_match_single_matrices(self, rng, normalize):
        x = ag.Tensor(rng.normal(size=(3, 6, 4)))
        upstream = rng.normal(size=(3, 4))
        out, _ = ag.pool_rows(x, normalize)
        dot_loss(out, upstream).backward()
        for b in range(3):
            one = ag.Tensor(x.data[b])
            out_b, _ = ag.pool_rows(one, normalize)
            dot_loss(out_b, upstream[b]).backward()
            np.testing.assert_array_equal(out.data[b], out_b.data)
            np.testing.assert_array_equal(x.grad[b], one.grad)

    def test_overflowing_norm_is_scaled_and_other_rows_keep_bits(self, rng):
        """A finite pooled vector whose squares overflow is divided by its
        scaled norm, and its gradient is the unscaled vector's over the
        scale.  A vector holding inf, and every other, keeps the bits of
        the plain ``sqrt(sum(v * v))`` rule."""
        x = rng.normal(size=(3, 5, 4))
        huge = x * 1e160
        huge[0] = x[0]
        huge[2, 1, 1] = np.inf
        upstream = rng.normal(size=(3, 4))
        small, big = ag.Tensor(x), ag.Tensor(huge)
        with np.errstate(over="ignore", invalid="ignore"):
            out, degenerate = ag.pool_rows(big, True)
            dot_loss(out, upstream).backward()
            plain = huge.max(axis=1)
            plain = plain / np.sqrt((plain * plain).sum(axis=-1))[:, None]
        ref, _ = ag.pool_rows(small, True)
        dot_loss(ref, upstream).backward()
        np.testing.assert_array_equal(out.data[[0, 2]], plain[[0, 2]])
        np.testing.assert_allclose(out.data[1], ref.data[1], rtol=1e-14)
        np.testing.assert_allclose(big.grad[1] * 1e160, small.grad[1],
                                   rtol=1e-12)
        assert not degenerate.any()

    @pytest.mark.parametrize("shape", [(5, 4), (2, 5, 4)])
    def test_gradient_matches_finite_differences(self, rng, shape):
        x = ag.Tensor(rng.normal(size=shape))
        upstream = rng.normal(size=(*shape[:-2], 4))

        def loss_fn():
            return dot_loss(ag.pool_rows(x, True)[0], upstream)

        loss_fn().backward()
        assert max_rel_err(x.grad, finite_difference(loss_fn, x)) < 1e-6


def chained_ring_affine(parts, layer):
    """`ag.ring_affine` as the chain of ops it replaces: `ring_rows` per
    turned part, `concat_cols`, `affine` and `relu`."""
    turned = [t if shift == 0 else ag.ring_rows(t, shift)
              for t, shift in parts]
    return relu(ag.affine(ag.concat_cols(turned), *layer))


class TestRingAffine:
    @pytest.mark.parametrize("n", [3, 6, 12])
    @pytest.mark.parametrize("batch", [(), (4,)])
    @pytest.mark.parametrize("spec", [
        "x-1 x0 x1",        # the learned neighboring module
        "x0 y0",            # the pairwise fusion
        "y1 x-1 x0 x1 y0",  # turned and unturned reads of two tensors
    ])
    def test_bits_of_the_chain_it_replaces(self, rng, n, batch, spec):
        data = {name: rng.normal(size=(*batch, n, 5)) for name in "xy"}
        spec = [(part[0], int(part[1:])) for part in spec.split()]
        layer = make_layer(rng.normal(size=(7, 5 * len(spec))),
                           rng.normal(size=7))
        upstream = rng.normal(size=(*batch, n, 7))
        runs = []
        for op in (lambda parts: ag.ring_affine(parts, layer.weight,
                                                layer.bias),
                   lambda parts: chained_ring_affine(parts, layer)):
            tensors = {name: ag.Tensor(v) for name, v in data.items()}
            for p in layer:
                p.zero_grad()
            out = op([(tensors[name], shift) for name, shift in spec])
            dot_loss(out, upstream).backward()
            runs.append([out.data, layer.weight.grad, layer.bias.grad]
                        + [t.grad for t in tensors.values()])
        for new, chained in zip(*runs):
            np.testing.assert_array_equal(new, chained)

    @pytest.mark.parametrize("shape", [(6, 2), (2, 6, 2)])
    def test_gradient_matches_finite_differences(self, rng, shape):
        x, y = ag.Tensor(rng.normal(size=shape)), ag.Tensor(
            rng.normal(size=shape))
        layer = make_layer(rng.normal(size=(3, 8)), rng.normal(size=3))
        upstream = rng.normal(size=(*shape[:-1], 3))

        def loss_fn():
            out = ag.ring_affine([(x, -1), (x, 0), (y, 0), (x, 1)],
                                 layer.weight, layer.bias)
            return dot_loss(out, upstream)

        tensors = [x, y, *layer]
        for t in tensors:
            t.zero_grad()
        loss_fn().backward()
        for t in tensors:
            assert max_rel_err(t.grad, finite_difference(loss_fn, t)) < 1e-6

    def test_nan_passes_the_rectifier(self):
        # A NaN input would reach every output through the weights; the
        # bias puts it before one rectifier only.
        out = ag.ring_affine([([[0.0, -1.0, 2.0]], 0)], np.eye(3),
                             [np.nan, 0.0, 0.0])
        assert np.isnan(out.data[0, 0])
        np.testing.assert_array_equal(out.data[0, 1:], [0.0, 2.0])

    def test_parts_must_join_into_the_weight_input(self):
        with pytest.raises(ShapeMismatchError):
            ag.ring_affine([(np.zeros((4, 2)), 0), (np.zeros((3, 2)), 0)],
                           np.zeros((1, 4)), np.zeros(1))
        with pytest.raises(ShapeMismatchError):
            ag.ring_affine([(np.zeros((4, 2)), 1)], np.zeros((1, 3)),
                           np.zeros(1))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = ag.softmax_cross_entropy(np.zeros((2, 5)), [0, 3])
        assert abs(float(loss.data) - np.log(5.0)) < 1e-12

    def test_confident_correct_logits(self):
        # log-sum-exp by hand: log(1 + exp(-20)) = 2.0611536e-9
        loss = ag.softmax_cross_entropy([[10.0, -10.0]], [0])
        np.testing.assert_allclose(float(loss.data), 2.0611536181902037e-09,
                                   rtol=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        logits = ag.Tensor(rng.normal(size=(3, 4)))
        labels = np.array([1, 0, 3])

        def loss_fn():
            return ag.softmax_cross_entropy(logits, labels)

        logits.zero_grad()
        loss_fn().backward()
        numeric = finite_difference(loss_fn, logits)
        assert max_rel_err(logits.grad, numeric) < 1e-6

    def test_out_of_range_label_reports_index(self):
        with pytest.raises(LabelError, match="index 1"):
            ag.softmax_cross_entropy(np.zeros((2, 3)), [0, 7])


def test_determinism_bit_identical(rng):
    x = rng.normal(size=(4, 3))
    mlp1, _ = make_mlp([3, 4, 2], np.random.default_rng(9))
    mlp2, _ = make_mlp([3, 4, 2], np.random.default_rng(9))
    out1, out2 = (ag.affine(relu(ag.affine(x, *mlp[0])), *mlp[1])
                  for mlp in (mlp1, mlp2))
    np.testing.assert_array_equal(out1.data, out2.data)


class TestRingPools:
    """`ag.ring_max` and `ag.ring_mean` take the parts `ag.ring_affine`
    takes."""

    @pytest.mark.parametrize("op", [ag.ring_max, ag.ring_mean])
    def test_parts_must_share_their_rows(self, op):
        with pytest.raises(ShapeMismatchError):
            op([(np.zeros((4, 2)), 0), (np.zeros((3, 2)), 1)])

    @pytest.mark.parametrize("op", [ag.ring_max, ag.ring_mean])
    @pytest.mark.parametrize("shape", [(6, 2), (2, 6, 2)])
    def test_gradient_matches_finite_differences(self, rng, op, shape):
        x, y = ag.Tensor(rng.normal(size=shape)), ag.Tensor(
            rng.normal(size=shape))
        upstream = rng.normal(size=shape)

        def loss_fn():
            return dot_loss(op([(x, -1), (y, 0), (x, 2), (x, 0)]), upstream)

        for t in (x, y):
            t.zero_grad()
        loss_fn().backward()
        for t in (x, y):
            assert max_rel_err(t.grad, finite_difference(loss_fn, t)) < 1e-6
