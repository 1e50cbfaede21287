import threading
import tracemalloc

import numpy as np
import pytest

from hrgenet import autograd as ag
from hrgenet import retrieval
from hrgenet.autograd import Tensor, as_tensor
from hrgenet.data import SyntheticSpec, generate_synthetic
from hrgenet.errors import ConfigError, ShapeMismatchError
from hrgenet.graph import (
    VARIANTS,
    HrgeModel,
    LevelParams,
    VariantSpec,
    hierarchy_depth,
    hrge_forward,
)
from hrgenet.training import Classifier

from conftest import finite_difference, max_rel_err


def level_arrays(params):
    """Raw weight/bias arrays of one level, for oracle recomputation."""
    mlp = [(l.weight.data, l.bias.data) for l in params.pairwise]
    fusion = (params.fusion.weight.data, params.fusion.bias.data)
    neighbor = None
    if params.neighboring is not None:
        neighbor = (params.neighboring.weight.data,
                    params.neighboring.bias.data)
    return mlp, fusion, neighbor


def oracle_mlp(mlp_arrays, x):
    h = x
    last = len(mlp_arrays) - 1
    for k, (w, b) in enumerate(mlp_arrays):
        h = h @ w.T + b
        if k < last:
            h = np.maximum(h, 0.0)
    return h


def oracle_pairwise(x, params):
    """Explicit double loop over all ordered node pairs."""
    mlp, (wf, bf), _ = level_arrays(params)
    n = x.shape[0]
    out = np.zeros_like(x)
    for i in range(n):
        summed = np.zeros(x.shape[1])
        for j in range(n):
            if j == i:
                continue
            summed += oracle_mlp(mlp, np.concatenate([x[i], x[j]])[None])[0]
        fused = wf @ np.concatenate([x[i], summed]) + bf
        out[i] = np.maximum(fused, 0.0)
    return out


def oracle_neighboring(x, params):
    _, _, (wn, bn) = level_arrays(params)
    n = x.shape[0]
    out = np.zeros_like(x)
    for i in range(n):
        triplet = np.concatenate([x[(i - 1) % n], x[i], x[(i + 1) % n]])
        out[i] = np.maximum(wn @ triplet + bn, 0.0)
    return out


def backward_from(out, g):
    """Run the backward of `out` as if the loss's gradient at it were
    `g`: a scalar node that hands `g` to `out`."""
    Tensor(0.0, _parents=(out,),
           _grad_fn=lambda s: out._accumulate(g * s)).backward()


def oracle_descriptor(x):
    pooled = x.max(axis=0)
    norm = np.linalg.norm(pooled)
    return pooled if norm < 1e-12 else pooled / norm


def oracle_forward(model, views):
    """Standalone recomputation of the full hierarchical forward."""
    x = views.copy()
    blocks = []
    for params in model.levels:
        updated = oracle_pairwise(x, params)
        blocks.append(oracle_descriptor(updated))
        shifted = oracle_neighboring(updated, params)
        n = shifted.shape[0]
        kept = np.arange(1, n // model.stride + 1) * model.stride - 1
        x = shifted[kept]
    blocks.append(oracle_descriptor(x))
    return blocks


def pairwise_step(x, params):
    """A level's pairwise module as `hrge_forward` runs it: the pair sum,
    then the fusion of ``[node, summed relations]``."""
    summed = ag.pair_relation_sum(x, params.pairwise)
    return ag.ring_affine([(x, 0), (summed, 0)], *params.fusion)


def neighbor_step(x, params):
    """A level's neighboring module as `hrge_forward` runs it: the op its
    neighbor kind names over the ring turned by each of the kind's
    shifts."""
    kind = params.neighbor
    return getattr(ag, kind.op)([(x, shift) for shift in kind.shifts],
                                *(params.neighboring or ()))


def identity_plan(model, views):
    """The blocks of a model whose neighbor kind is the identity, built op
    by op with no neighboring step at all."""
    x, blocks = as_tensor(views), []
    for level in model.levels:
        if level.pairwise is not None:
            x = pairwise_step(x, level)
        if level.stride:
            blocks.append(ag.pool_rows(x, True)[0])
            x = ag.ring_rows(x, level.stride - 1, level.stride)
    blocks.append(ag.pool_rows(x, True)[0])
    return blocks


class TestPairwiseRelation:
    def test_single_node_empty_neighborhood(self, rng):
        params = LevelParams(3, rng)
        x = rng.normal(size=(1, 3))
        out = pairwise_step(x, params)
        wf, bf = params.fusion.weight.data, params.fusion.bias.data
        expected = np.maximum(
            wf @ np.concatenate([x[0], np.zeros(3)]) + bf, 0.0)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_two_nodes_single_pair_each(self, rng):
        params = LevelParams(3, rng)
        x = rng.normal(size=(2, 3))
        out = pairwise_step(x, params)
        np.testing.assert_allclose(out.data, oracle_pairwise(x, params),
                                   atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        params = LevelParams(3, rng)
        x = rng.normal(size=(4, 3))
        out = pairwise_step(x, params)
        np.testing.assert_allclose(out.data, oracle_pairwise(x, params),
                                   atol=1e-12)

    def test_width_mismatch_rejected(self, rng):
        params = LevelParams(3, rng)
        with pytest.raises(ShapeMismatchError):
            ag.pair_relation_sum(rng.normal(size=(4, 5)), params.pairwise)

    def test_permutation_equivariance_exact(self, rng):
        params = LevelParams(4, rng)
        x = rng.normal(size=(6, 4))
        out = pairwise_step(x, params).data
        perm = rng.permutation(6)
        out_p = pairwise_step(x[perm], params).data
        np.testing.assert_array_equal(out_p, out[perm])


class TestNeighboringRelation:
    def test_three_nodes_full_ring(self, rng):
        params = LevelParams(2, rng)
        x = rng.normal(size=(3, 2))
        out = neighbor_step(x, params)
        np.testing.assert_allclose(out.data, oracle_neighboring(x, params),
                                   atol=1e-12)

    def test_identical_features_give_identical_outputs(self, rng):
        params = LevelParams(3, rng)
        x = np.tile(rng.normal(size=(1, 3)), (5, 1))
        out = neighbor_step(x, params).data
        np.testing.assert_array_equal(out, np.tile(out[:1], (5, 1)))

    def test_cyclic_shift_equivariance(self, rng):
        params = LevelParams(3, rng)
        x = rng.normal(size=(6, 3))
        out = neighbor_step(x, params).data
        for k in (1, 2, 5):
            shifted = neighbor_step(np.roll(x, k, axis=0), params).data
            np.testing.assert_array_equal(shifted, np.roll(out, k, axis=0))

    def test_ring_below_three_rejected(self):
        """The neighbor triplets need a ring of 3; the model refuses a
        smaller one before any forward runs."""
        with pytest.raises(ConfigError, match="ring of >= 3 views"):
            HrgeModel(num_views=2, width=3, variant="nr")


class TestCoarsen:
    """Coarsening by a stride is ``ag.ring_rows(x, stride - 1, stride)``."""

    def test_twelve_nodes_stride_two_keeps_even_ring_positions(
            self, monkeypatch):
        x = np.arange(12, dtype=float).reshape(12, 1)
        out = ag.ring_rows(x, 1, 2)
        # 1-based old indices 2, 4, ..., 12
        np.testing.assert_array_equal(out.data.ravel(), [1, 3, 5, 7, 9, 11])
        # The forward coarsens level 0's ring into level 1's that way.
        calls, ring_rows = [], ag.ring_rows

        def spy(a, shift, stride=1):
            calls.append((a.data.shape[-2], shift, stride))
            return ring_rows(a, shift, stride)

        monkeypatch.setattr(ag, "ring_rows", spy)
        hrge_forward(HrgeModel(num_views=12, width=1, variant="full"), x)
        assert calls == [(12, 1, 2), (6, 1, 2)]

    def test_stride_one_is_identity(self, rng):
        x = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(ag.ring_rows(x, 0, 1).data, x)

    def test_repeated_stride_two_differs_from_stride_four(self, rng):
        x = rng.normal(size=(8, 2))
        twice = ag.ring_rows(ag.ring_rows(x, 1, 2), 1, 2)
        once = ag.ring_rows(x, 3, 4)
        # index maps: {2,4,6,8} -> {4,8} versus {4,8} directly; same here,
        # but on 6 nodes stride-2-twice is impossible while the composed
        # selections on 8 nodes coincide -- enumerate to document the maps
        np.testing.assert_array_equal(twice.data, x[[3, 7]])
        np.testing.assert_array_equal(once.data, x[[3, 7]])
        with pytest.raises(ShapeMismatchError):
            ag.ring_rows(ag.ring_rows(rng.normal(size=(6, 2)), 1, 2), 1, 2)
        with pytest.raises(ConfigError, match="6 views with stride 2"):
            HrgeModel(num_views=6, width=2, variant="full", depth=2)

    def test_non_divisible_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            ag.ring_rows(rng.normal(size=(5, 2)), 1, 2)
        with pytest.raises(ConfigError, match="5 views with stride 2"):
            HrgeModel(num_views=5, width=2, variant="full", depth=1)

    def test_shift_by_stride_maps_to_shift_by_one(self, rng):
        x = rng.normal(size=(12, 3))
        base = ag.ring_rows(x, 1, 2).data
        shifted = ag.ring_rows(np.roll(x, 2, axis=0), 1, 2).data
        np.testing.assert_array_equal(shifted, np.roll(base, 1, axis=0))


class TestLevelDescriptor:
    def test_single_row(self, rng):
        v = rng.normal(size=(1, 4))
        out, degenerate = ag.pool_rows(v, True)
        np.testing.assert_allclose(out.data, v[0] / np.linalg.norm(v[0]))
        assert not degenerate

    def test_hand_case(self):
        out, _ = ag.pool_rows(np.array([[1.0, 0.0], [0.0, 1.0]]), True)
        np.testing.assert_allclose(out.data, [np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_permutation_invariance(self, rng):
        x = rng.normal(size=(6, 4))
        out, _ = ag.pool_rows(x, True)
        out_p, _ = ag.pool_rows(x[rng.permutation(6)], True)
        np.testing.assert_array_equal(out.data, out_p.data)


class TestHrgeForward:
    def test_twelve_view_hierarchy(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="full", seed=0)
        assert model.depth == 2
        desc = hrge_forward(model, rng.normal(size=(12, 4)))
        assert len(desc.blocks) == 3
        assert desc.concat.data.shape == (12,)

    def test_six_view_hierarchy(self, rng):
        model = HrgeModel(num_views=6, width=4, variant="full", seed=0)
        assert model.depth == 1
        desc = hrge_forward(model, rng.normal(size=(6, 4)))
        assert len(desc.blocks) == 2
        assert desc.concat.data.shape == (8,)

    def test_matches_standalone_oracle(self, rng):
        model = HrgeModel(num_views=4, width=2, variant="full", depth=1, seed=5)
        views = rng.normal(size=(4, 2))
        desc = hrge_forward(model, views)
        expected = oracle_forward(model, views)
        assert len(desc.blocks) == len(expected)
        for block, want in zip(desc.blocks, expected):
            np.testing.assert_allclose(block.data, want, atol=1e-12)

    def test_block_norms_are_unit(self, rng):
        model = HrgeModel(num_views=12, width=6, variant="full", seed=2)
        desc = hrge_forward(model, rng.normal(size=(12, 6)))
        for block in desc.blocks:
            assert abs(np.linalg.norm(block.data) - 1.0) < 1e-9

    def test_wrong_view_count_rejected(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="full")
        with pytest.raises(ShapeMismatchError):
            hrge_forward(model, rng.normal(size=(6, 4)))

    def test_f0_exact_permutation_invariance(self, rng):
        model = HrgeModel(num_views=12, width=5, variant="full", seed=3)
        views = rng.normal(size=(12, 5))
        f0 = hrge_forward(model, views).blocks[0].data
        for _ in range(20):
            f0_p = hrge_forward(model,
                                views[rng.permutation(12)]).blocks[0].data
            np.testing.assert_array_equal(f0_p, f0)

    def test_cyclic_shift_by_four_preserves_descriptor(self, rng):
        model = HrgeModel(num_views=12, width=5, variant="full", seed=3)
        views = rng.normal(size=(12, 5))
        base = hrge_forward(model, views)
        shifted = hrge_forward(model, np.roll(views, 4, axis=0))
        for a, b in zip(base.blocks, shifted.blocks):
            np.testing.assert_allclose(b.data, a.data, atol=1e-9)

    def test_cyclic_shift_by_two_changes_last_block(self, rng):
        model = HrgeModel(num_views=12, width=5, variant="full", seed=3)
        changed = 0
        for _ in range(20):
            views = rng.normal(size=(12, 5))
            base = hrge_forward(model, views).blocks[2].data
            shifted = hrge_forward(model,
                                   np.roll(views, 2, axis=0)).blocks[2].data
            if np.abs(base - shifted).max() > 1e-9:
                changed += 1
        assert changed >= 19

    def test_descriptor_length_rule(self):
        for num_views, depth in ((12, 2), (6, 1), (4, 1)):
            model = HrgeModel(num_views=num_views, width=3, variant="full",
                              depth=depth)
            assert model.descriptor_length == (depth + 1) * 3

    def test_determinism_same_seed_bit_identical(self, rng):
        views = rng.normal(size=(12, 4))
        a = hrge_forward(HrgeModel(12, 4, "full", seed=7), views)
        b = hrge_forward(HrgeModel(12, 4, "full", seed=7), views)
        np.testing.assert_array_equal(a.concat.data, b.concat.data)

    def test_end_to_end_gradients_match_finite_differences(self, rng):
        model = HrgeModel(num_views=4, width=4, variant="full", seed=1)
        classifier = Classifier(model.descriptor_length, 3, seed=2)
        views = rng.normal(size=(4, 4))
        labels = np.array([2])

        def loss_fn():
            desc = hrge_forward(model, views[None]).concat
            logits = ag.affine(desc, *classifier.head)
            return ag.softmax_cross_entropy(logits, labels)

        params = model.parameters() + classifier.parameters()
        for p in params:
            p.zero_grad()
        loss_fn().backward()
        for p in params:
            assert max_rel_err(p.grad, finite_difference(loss_fn, p)) < 1e-4


class TestVariants:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            VariantSpec.from_name("attention")

    def test_known_names_resolve(self):
        for name, key in (("Baseline", "baseline"), ("PR", "pr"),
                          ("NR", "nr"), ("HRGE-1L", "1l"),
                          ("HRGE-full", "full"), ("HRGE-woN", "won"),
                          ("w/o-N", "won"), ("HRGE-MP", "mp"),
                          ("HRGE-AP", "ap"), ("HRGE-ID", "id")):
            spec = VariantSpec.from_name(name)
            assert isinstance(spec, VariantSpec)
            assert spec is VARIANTS[key]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_named_block_gets_gradient(self, variant):
        rng = np.random.default_rng(17)
        model = HrgeModel(num_views=12, width=8, variant=variant, seed=18)
        classifier = Classifier(model.descriptor_length, 3, seed=19)
        views = rng.normal(size=(12, 8))
        desc = hrge_forward(model, views[None]).concat
        logits = ag.affine(desc, *classifier.head)
        ag.softmax_cross_entropy(logits, np.array([1])).backward()
        for name, p in model.named_parameters() + classifier.named_parameters():
            assert p.grad is not None and np.any(p.grad != 0), name

    def test_baseline_is_permutation_invariant(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="baseline")
        views = rng.normal(size=(12, 4))
        base = hrge_forward(model, views).concat.data
        for _ in range(10):
            perm = hrge_forward(model,
                                views[rng.permutation(12)]).concat.data
            np.testing.assert_array_equal(perm, base)

    def test_baseline_descriptor_is_pooled_input(self, rng):
        model = HrgeModel(num_views=6, width=4, variant="baseline")
        views = rng.normal(size=(6, 4))
        desc = hrge_forward(model, views).concat.data
        np.testing.assert_allclose(desc, oracle_descriptor(views))

    def test_id_variant_neighboring_is_passthrough(self, rng):
        """The `id` forward has the bits of its plan run with no
        neighboring step."""
        model = HrgeModel(num_views=12, width=3, variant="id", seed=4)
        views = rng.normal(size=(12, 3))
        desc = hrge_forward(model, views)
        for block, want in zip(desc.blocks, identity_plan(model, views),
                               strict=True):
            np.testing.assert_array_equal(block.data, want.data)

    def test_ap_variant_on_identical_rows(self, rng):
        params = LevelParams(3, rng, neighbor_kind="avg")
        row = rng.normal(size=3)
        x = np.tile(row, (4, 1))
        out = neighbor_step(x, params)
        np.testing.assert_allclose(out.data, x, rtol=1e-15)

    def test_mp_variant_is_elementwise_triplet_max(self, rng):
        params = LevelParams(2, rng, neighbor_kind="max")
        x = rng.normal(size=(5, 2))
        out = neighbor_step(x, params).data
        n = 5
        for i in range(n):
            trip = np.stack([x[(i - 1) % n], x[i], x[(i + 1) % n]])
            np.testing.assert_array_equal(out[i], trip.max(axis=0))

    def test_ap_variant_is_sum_in_ring_order_times_rounded_third(self, rng):
        params = LevelParams(3, rng, neighbor_kind="avg")
        x = rng.normal(size=(2, 7, 3))
        out = neighbor_step(x, params).data
        prev, nxt = np.roll(x, 1, axis=-2), np.roll(x, -1, axis=-2)
        np.testing.assert_array_equal(out, ((prev + x) + nxt) * (1.0 / 3.0))

    def test_mp_gradient_goes_where_ties_and_nan_route_it(self):
        """The max folds ``(prev, x, next)`` in that order, each step
        keeping the running max where it is ``>=`` the next input: a tie
        goes to the first tied input, a NaN input wins its step and then
        loses the next one.  Each output's gradient goes to the one input
        it was taken from."""
        nan = np.nan
        x = Tensor(np.array([[1.0, 2.0, nan, 0.0],
                             [1.0, 2.0, 5.0, 0.0],
                             [0.0, 2.0, 1.0, 0.0],
                             [1.0, nan, 1.0, 0.0]]))
        params = LevelParams(4, np.random.default_rng(0), neighbor_kind="max")
        out = neighbor_step(x, params)
        g = np.arange(1.0, 17.0).reshape(4, 4)
        backward_from(out, g)
        n = 4
        want_out, want_grad = np.zeros((n, 4)), np.zeros((n, 4))
        for i in range(n):
            for c in range(4):
                rows = [(i - 1) % n, i, (i + 1) % n]
                best = 0
                for k in (1, 2):
                    if not x.data[rows[best], c] >= x.data[rows[k], c]:
                        best = k
                want_out[i, c] = x.data[rows[best], c]
                want_grad[rows[best], c] += g[i, c]
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(x.grad, want_grad)
        # Spot checks of the rule: the all-zero column ties everywhere, so
        # each output's gradient goes to its prev row.
        np.testing.assert_array_equal(x.grad[:, 3],
                                      [g[1, 3], g[2, 3], g[3, 3], g[0, 3]])

    def test_ap_gradient_is_a_third_to_each_ring_input(self, rng):
        params = LevelParams(3, rng, neighbor_kind="avg")
        x = Tensor(rng.normal(size=(5, 3)))
        g = rng.normal(size=(5, 3))
        backward_from(neighbor_step(x, params), g)
        want = (np.roll(g, 1, axis=0) + g + np.roll(g, -1, axis=0)) / 3.0
        np.testing.assert_allclose(x.grad, want, rtol=1e-15)

    def test_won_variant_emits_non_unit_block(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="won", seed=1)
        desc = hrge_forward(model, rng.normal(size=(12, 4)))
        norms = [np.linalg.norm(b.data) for b in desc.blocks]
        assert any(abs(n - 1.0) > 1e-9 for n in norms)

    def test_1l_variant_depth(self):
        model = HrgeModel(num_views=12, width=4, variant="1l")
        assert model.depth == 1
        assert model.descriptor_length == 8
        assert HrgeModel(num_views=12, width=4, variant="1l",
                         depth=1).depth == 1

    @pytest.mark.parametrize("variant,depth", [
        ("1l", 2), ("pr", 5), ("pr", 0), ("baseline", 1), ("nr", 2)])
    def test_depth_the_variant_does_not_run_rejected(self, variant, depth):
        with pytest.raises(ConfigError, match=f"cannot run depth {depth}"):
            HrgeModel(num_views=12, width=4, variant=variant, depth=depth)

    def test_pr_nr_single_block(self, rng):
        views = rng.normal(size=(12, 4))
        for name in ("pr", "nr"):
            model = HrgeModel(num_views=12, width=4, variant=name, seed=2)
            desc = hrge_forward(model, views)
            assert len(desc.blocks) == 1
            assert abs(np.linalg.norm(desc.concat.data) - 1.0) < 1e-9


class TestBatch:
    """A (B, n, w) batch runs the same engine as a single shape."""

    @pytest.mark.parametrize("variant,num_views,width", [
        *[(v, 12, 8) for v in sorted(VARIANTS)],
        *[(v, 6, 8) for v in sorted(VARIANTS)],
        ("full", 80, 4),
        # At paper width a GEMM over the folded batch rounds rows differently.
        ("full", 12, 32),
    ])
    def test_rows_bit_identical_to_single_shape(self, variant, num_views,
                                                width):
        model = HrgeModel(num_views=num_views, width=width, variant=variant,
                          seed=31)
        views = np.random.default_rng(32).normal(
            size=(9, num_views, width))
        batch = hrge_forward(model, views)
        assert batch.concat.data.shape == (9, model.descriptor_length)
        for b in range(9):
            alone = hrge_forward(model, views[b])
            np.testing.assert_array_equal(batch.concat.data[b],
                                          alone.concat.data)
            for block, block_alone in zip(batch.blocks, alone.blocks):
                np.testing.assert_array_equal(block.data[b], block_alone.data)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_batch_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(33)
        model = HrgeModel(num_views=6, width=3, variant=variant, seed=34)
        classifier = Classifier(model.descriptor_length, 3, seed=35)
        views = rng.normal(size=(3, 6, 3))
        labels = np.array([2, 0, 1])
        named = model.named_parameters() + classifier.named_parameters()
        # Zero biases put dead rows exactly on a rectifier's kink, where
        # central differences average the two one-sided slopes.
        for _, p in named:
            p.data += rng.normal(scale=0.1, size=p.data.shape)

        def loss_fn():
            desc = hrge_forward(model, views).concat
            return ag.softmax_cross_entropy(
                ag.affine(desc, *classifier.head), labels)

        for _, p in named:
            p.zero_grad()
        loss_fn().backward()
        for name, p in named:
            numeric = finite_difference(loss_fn, p)
            assert max_rel_err(p.grad, numeric) < 1e-4, name


class TestGraphSize:
    """What one forward costs is mostly its node count: each non-leaf node
    is a few microseconds of numpy at one shape, plus its bookkeeping."""

    def test_one_shape_forward_has_one_node_per_module(self, rng):
        """Per level of a `full` model: the pair sum, the fusion, the level
        block, the learned neighbor and the coarsening; then the last block
        and the concatenation.  At n=12 (two levels) that is 12 nodes; the
        same forward built from row, concatenation, affine, rectifier, pool
        and normalization ops was 23."""
        model = HrgeModel(num_views=12, width=8, variant="full", seed=44)
        desc = hrge_forward(model, rng.normal(size=(12, 8)))
        inner = [node for node in ag._toposort(desc.concat)
                 if node._grad_fn is not None]
        assert len(inner) <= 12

    def test_each_neighbor_kind_is_one_node(self, rng):
        """The fixed neighbor kinds are one node each, as the learned one
        is, and the identity kind is none, so a one-shape n=12 `mp` or
        `ap` forward has as many non-leaf nodes as `full`, and `id` one
        fewer per level."""
        views = rng.normal(size=(12, 8))

        def inner_nodes(variant):
            root = hrge_forward(HrgeModel(12, 8, variant, seed=44),
                                views).concat
            seen, stack, inner = {id(root)}, [root], 0
            while stack:
                node = stack.pop()
                inner += node._grad_fn is not None
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return inner

        full = inner_nodes("full")
        assert full == 12
        assert inner_nodes("mp") == inner_nodes("ap") == full
        assert inner_nodes("id") == full - 2

    def test_index_runs_one_forward_per_shape(self, monkeypatch):
        """`build_index` calls `hrge_forward` once per shape, on its
        ``(n, w)`` views and grad-free, as the retrieval benchmark counts
        it; each row has the bits of the graph forward's descriptor scaled
        to unit norm."""
        dataset = generate_synthetic(SyntheticSpec(3, 2, 12, 8, seed=45))
        model = HrgeModel(num_views=12, width=8, variant="full", seed=46)
        calls, forward = [], retrieval.hrge_forward

        def counted(model, views, **kwargs):
            calls.append((np.shape(views), kwargs))
            return forward(model, views, **kwargs)

        monkeypatch.setattr(retrieval, "hrge_forward", counted)
        index = retrieval.build_index(model, dataset)
        assert calls == [((12, 8), {"grad": False})] * 6
        for record, vector in zip(dataset.records, index.vectors):
            desc = hrge_forward(model, record.views).concat.data
            np.testing.assert_array_equal(
                vector.view(np.uint64),
                (desc / np.linalg.norm(desc)).view(np.uint64))


# Geometries of the grad-free bit checks, each run by every variant that
# accepts it: 12 views, 9 views at stride 3, 8 views at depth 2, and 7
# views, which only the variants without hierarchy take.
GEOMETRIES = {"n12": dict(num_views=12), "n9-s3": dict(num_views=9, stride=3),
              "n8-d2": dict(num_views=8, depth=2), "n7": dict(num_views=7)}


def accepts(variant, geometry):
    try:
        HrgeModel(width=1, variant=variant, **geometry)
    except ConfigError:
        return False
    return True


GRAD_FREE_CASES = [(variant, name) for variant in VARIANTS
                   for name, geometry in GEOMETRIES.items()
                   if accepts(variant, geometry)]


def awkward_views(rng, batch, n, w):
    """``(batch, n, w)`` views whose rows 0 and 1 are equal and whose row
    2 mixes 0.0 and -0.0; the last shape has a NaN row and, in a batch,
    the one before it is all zeros, so that every block of a model with
    zero biases is degenerate."""
    views = rng.normal(size=(batch, n, w))
    views[:, 1] = views[:, 0]
    views[:, 2] = np.where(np.arange(w) % 2, 0.0, -0.0)
    views[-1, 3] = np.nan
    if batch > 1:
        views[-2] = 0.0
    return views


def assert_grad_free_bits(model, views):
    """The grad-free forward of `views` has the graph forward's blocks,
    concatenation and degenerate flags, bit for bit, as leaf tensors."""
    graph = hrge_forward(model, views)
    free = hrge_forward(model, views, grad=False)
    assert len(free.blocks) == len(graph.blocks)
    for g, f in zip(graph.blocks + [graph.concat],
                    free.blocks + [free.concat]):
        assert f.data.shape == g.data.shape
        np.testing.assert_array_equal(f.data.view(np.uint64),
                                      g.data.view(np.uint64))
        assert f._parents == () and f._grad_fn is None
    for g, f in zip(graph.degenerate, free.degenerate):
        np.testing.assert_array_equal(f, g)
    return free


class TestGradFree:
    """``hrge_forward(..., grad=False)`` runs the level plan over arrays
    through the kernels the graph ops wrap, with the graph's bits."""

    @pytest.mark.parametrize("variant, geometry", GRAD_FREE_CASES)
    def test_bits_equal_the_graph_forward(self, variant, geometry):
        spec = GEOMETRIES[geometry]
        model = HrgeModel(width=5, variant=variant, seed=47, **spec)
        rng = np.random.default_rng(48)
        views = awkward_views(rng, 4, spec["num_views"], 5)
        free = assert_grad_free_bits(model, views)
        assert np.isnan(free.concat.data[-1]).all()
        if VARIANTS[variant].normalize_blocks:
            assert all(flags[-2] for flags in free.degenerate)
        for shape in (views[0], views[-1], rng.normal(
                size=(spec["num_views"], 5))):
            assert_grad_free_bits(model, shape)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_n80_batch_in_one_shape_groups(self, monkeypatch, workers):
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", 1)
        monkeypatch.setattr(ag, "_pair_workers", lambda: workers)
        model = HrgeModel(num_views=80, width=4, variant="full", seed=49)
        views = awkward_views(np.random.default_rng(50), 3, 80, 4)
        assert_grad_free_bits(model, views)
        assert_grad_free_bits(model, views[0])

    def test_keeps_no_pair_activation(self):
        """A one-shape pass is one pair group, whose activations the graph
        op keeps for backward: two 80 x 80 x 32 arrays at level 0.  The
        grad-free forward holds none of them once it returns."""
        model = HrgeModel(num_views=80, width=32, variant="full", seed=53)
        views = np.random.default_rng(54).normal(size=(80, 32))
        pair_array = 80 * 80 * 32 * 8
        held = {}
        for grad in (True, False):
            hrge_forward(model, views, grad=grad)  # caches filled
            tracemalloc.start()
            try:
                desc = hrge_forward(model, views, grad=grad)
                held[grad], _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del desc
        assert held[True] > 2 * pair_array
        assert held[False] < pair_array / 100

    @pytest.mark.parametrize("variant", [
        name for name, spec in VARIANTS.items() if spec.normalize_blocks])
    def test_blocks_of_huge_views_are_unit_length(self, variant):
        """Views near 1e160 are finite, but the squares of their pooled
        blocks overflow.  Each normalized block is still unit length and
        unflagged, not divided to zeros, in both modes and with the same
        bits.  The CLI runs every command with overflow ignored, as here."""
        model = HrgeModel(num_views=12, width=8, variant=variant, seed=57)
        views = np.random.default_rng(58).normal(size=(3, 12, 8)) * 1e160
        with np.errstate(over="ignore"):
            for shapes in (views, views[0]):
                free = assert_grad_free_bits(model, shapes)
                for block, flags in zip(free.blocks, free.degenerate):
                    np.testing.assert_allclose(
                        np.linalg.norm(block.data, axis=-1), 1.0, rtol=1e-12)
                    assert not np.any(flags)

    def test_one_block_concat_is_the_block(self, rng):
        model = HrgeModel(num_views=6, width=3, variant="pr", seed=51)
        free = hrge_forward(model, rng.normal(size=(6, 3)), grad=False)
        assert free.concat is free.blocks[0]

    def test_views_that_do_not_fit_the_model_are_refused(self, rng):
        model = HrgeModel(num_views=6, width=3, variant="full", seed=52)
        with pytest.raises(ShapeMismatchError, match="6 x 3 view matrix"):
            hrge_forward(model, rng.normal(size=(6, 4)), grad=False)


# Every op name `hrge_forward` runs, looked up on `ag` at run time, as the
# tracer and per-level attribution by `ring_rows` calls rely on.
WALK_OPS = ("pair_relation_sum", "ring_affine", "ring_max", "ring_mean",
            "pool_rows", "ring_rows", "concat_cols")


def record_walk_calls(monkeypatch):
    """Wrap each of `WALK_OPS` and its kernel on `ag`.  The returned list
    gets the name of every call not made from inside another wrapped
    call, so a graph op's own call of its kernel is not listed."""
    calls, inside = [], []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            if not inside:
                calls.append(name)
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    for op in WALK_OPS:
        for name in (op, op + "_kernel"):
            monkeypatch.setattr(ag, name, counted(name, getattr(ag, name)))
    return calls


class TestOneWalk:
    """Both modes of `hrge_forward` are one walk: the grad-free forward
    calls the kernel of each op the graph forward calls, in the same
    order."""

    @pytest.mark.parametrize("variant, geometry", GRAD_FREE_CASES)
    def test_both_modes_make_the_same_op_calls(self, monkeypatch, variant,
                                               geometry):
        spec = GEOMETRIES[geometry]
        model = HrgeModel(width=3, variant=variant, seed=55, **spec)
        views = np.random.default_rng(56).normal(
            size=(2, spec["num_views"], 3))
        calls = record_walk_calls(monkeypatch)
        hrge_forward(model, views)
        graph = calls.copy()
        calls.clear()
        hrge_forward(model, views, grad=False)
        assert calls == [name + "_kernel" for name in graph]
        assert graph.count("ring_rows") == model.depth
        assert calls.count("ring_rows_kernel") == model.depth

    def test_full_n12_op_sequence(self, monkeypatch, rng):
        """Per level of a `full` model: the pair sum, the fusion, the level
        block, the learned neighbor and the coarsening; then the last block
        and the concatenation."""
        model = HrgeModel(num_views=12, width=3, variant="full", seed=57)
        calls = record_walk_calls(monkeypatch)
        hrge_forward(model, rng.normal(size=(12, 3)))
        level = ["pair_relation_sum", "ring_affine", "pool_rows",
                 "ring_affine", "ring_rows"]
        assert calls == level * 2 + ["pool_rows", "concat_cols"]


def pair_layers_w32():
    """The pair MLP's ``(weight, bias)`` arrays of a width-32 level."""
    return level_arrays(HrgeModel(12, 32, "full", seed=59).levels[0])[0]


class TestPairGroups:
    """`ag.pair_relation_sum` runs its pair rows in groups of shapes."""

    @pytest.mark.parametrize("n", [6, 12, 20, 40, 80])
    @pytest.mark.parametrize("count", range(18))
    def test_planner_cuts_the_fewest_equal_groups(self, count, n):
        """Each shape falls in one group, in order; no group is empty or
        over the budget, sizes differ by at most one, and one group fewer
        could not hold every shape within the budget."""
        groups = ag._pair_groups(count, n, pair_layers_w32())
        shapes = [range(count)[g] for g in groups]
        assert [k for group in shapes for k in group] == list(range(count))
        sizes = [len(group) for group in shapes]
        most = max(1, ag.PAIR_GROUP_BYTES // (8 * n * n * 32))
        assert all(1 <= size <= most for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        assert (len(groups) - 1) * most < count or not groups

    def test_sixteen_shapes_at_n40_are_four_groups_of_four(self):
        """Level 1 of a 16-shape n=80 step: the budget holds 5 shapes, so
        4 groups are the fewest, and they are cut equal, not 5, 5, 5, 1."""
        groups = ag._pair_groups(16, 40, pair_layers_w32())
        assert [len(range(16)[g]) for g in groups] == [4, 4, 4, 4]

    def test_rows_bit_identical_across_groups(self, monkeypatch):
        # Level 0 at n=80, w=32 runs groups of 2, 2 and 1 shapes.
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", 2 * 8 * 80 * 80 * 32)
        model = HrgeModel(num_views=80, width=32, variant="full", seed=36)
        groups = ag._pair_groups(5, 80, pair_layers_w32())
        assert [len(range(5)[g]) for g in groups] == [2, 2, 1]
        views = np.random.default_rng(37).normal(size=(5, 80, 32))
        batch = hrge_forward(model, views).concat.data
        for b in range(5):
            np.testing.assert_array_equal(
                batch[b], hrge_forward(model, views[b]).concat.data)

    def test_gradients_match_finite_differences(self, monkeypatch):
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", 1)
        rng = np.random.default_rng(38)
        model = HrgeModel(num_views=6, width=3, variant="full", seed=39)
        classifier = Classifier(model.descriptor_length, 3, seed=40)
        views = Tensor(rng.normal(size=(3, 6, 3)))
        labels = np.array([1, 2, 0])
        named = model.named_parameters() + classifier.named_parameters()
        # Zero biases put dead rows exactly on a rectifier's kink.
        for _, p in named:
            p.data += rng.normal(scale=0.1, size=p.data.shape)

        def loss_fn():
            desc = hrge_forward(model, views).concat
            return ag.softmax_cross_entropy(
                ag.affine(desc, *classifier.head), labels)

        named.append(("views", views))
        for _, p in named:
            p.zero_grad()
        loss_fn().backward()
        for name, p in named:
            numeric = finite_difference(loss_fn, p)
            assert max_rel_err(p.grad, numeric) < 1e-4, name

    def test_n80_step_holds_less_than_one_batch_pair_array(self):
        """Forward and backward of 16 shapes at n=80 never hold as much as
        one level-0 pair-level array of the batch (16 x 6320 x 32 floats,
        25 MB): the pair rows are recomputed per group, not kept."""
        model = HrgeModel(num_views=80, width=32, variant="full", seed=41)
        classifier = Classifier(model.descriptor_length, 4, seed=42)
        views = np.random.default_rng(43).normal(size=(16, 80, 32))
        tracemalloc.start()
        try:
            logits = ag.affine(hrge_forward(model, views).concat,
                               *classifier.head)
            ag.softmax_cross_entropy(logits, np.arange(16) % 4).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 80 * 79 * 32 * 8

    def test_two_groups_in_flight_hold_no_more_than_one_did(self,
                                                             monkeypatch):
        """With two threads on the pair groups, a step of 16 shapes at n=80
        peaks no higher than it did on one thread before the backward
        reused its spent pair arrays: 15,616,656 bytes under tracemalloc
        (numpy 2.4, Python 3.11).  About 8.5 MB of that was one level-1
        group of 5 shapes, 4.3 times its 2 MB pair array; level-1 groups
        are now 4 shapes each.

        Each thread waits, holding its pair activations, until the other
        holds its own, so the two groups' pair arrays are alive together
        on every run, the worst case, and not only when the threads'
        timing happens to overlap them.  Every two-thread pass here has
        an even number of groups (16 at level 0, 4 at level 1), so every
        call finds a partner."""
        monkeypatch.setattr(ag, "_pair_workers", lambda: 2)
        in_pairs, both_hold = threading.Event(), threading.Barrier(2, timeout=30)
        run_groups, activations = ag._run_groups, ag._pair_activations
        paired = []

        def paired_run_groups(task, groups):
            if len(groups) > 1:
                in_pairs.set()
            try:
                return run_groups(task, groups)
            finally:
                in_pairs.clear()

        def paired_activations(*args):
            acts = activations(*args)
            if in_pairs.is_set():
                both_hold.wait()
                paired.append(len(acts))
            return acts

        monkeypatch.setattr(ag, "_run_groups", paired_run_groups)
        monkeypatch.setattr(ag, "_pair_activations", paired_activations)
        model = HrgeModel(num_views=80, width=32, variant="full", seed=41)
        classifier = Classifier(model.descriptor_length, 4, seed=42)
        views = np.random.default_rng(43).normal(size=(16, 80, 32))

        def step():
            logits = ag.affine(hrge_forward(model, views).concat,
                               *classifier.head)
            ag.softmax_cross_entropy(logits, np.arange(16) % 4).backward()

        step()  # the pool and the gradient buffers exist before tracing
        paired.clear()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Forward and backward, 16 + 4 groups each, two pair arrays each.
        assert paired == [2] * 40
        assert peak <= 15_616_656


def test_hierarchy_depth():
    assert hierarchy_depth(12, 2) == 2
    assert hierarchy_depth(6, 2) == 1
    assert hierarchy_depth(4, 2) == 1
    assert hierarchy_depth(10, 2) == 1


def test_geometry_validated_at_construction():
    with pytest.raises(ConfigError):
        HrgeModel(num_views=10, width=4, variant="full", depth=2)


@pytest.mark.parametrize("num_views,width", [(6, 0), (6, -2), (0, 3)])
def test_model_without_views_or_width_rejected(num_views, width):
    """A `baseline` model has no parameter block that would refuse the
    width, so the geometry check refuses it."""
    with pytest.raises(ConfigError, match="ring of >= 1 views and width >= 1"):
        HrgeModel(num_views, width, "baseline")


@pytest.mark.parametrize("num_views", [1, 2, 7])
def test_model_without_hierarchy_runs_one_level(rng, num_views):
    """A variant without hierarchy takes any ring its modules run on, and
    its plan is one level with no coarsening."""
    model = HrgeModel(num_views, 3, "pr", seed=1)
    assert model.depth == 0
    assert [level.stride for level in model.levels] == [None]
    desc = hrge_forward(model, rng.normal(size=(num_views, 3)))
    assert len(desc.blocks) == 1
