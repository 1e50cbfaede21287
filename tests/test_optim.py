import math

import numpy as np
import pytest

from hrgenet.autograd import Tensor
from hrgenet.errors import ConfigError, NumericError
from hrgenet.optim import Adam
from hrgenet.training import TrainConfig


class TestAdam:
    def test_zero_gradient_zero_decay_is_identity(self):
        p = Tensor([1.5, -2.0])
        opt = Adam([p], lr=0.01, weight_decay=0.0)
        p.grad = np.zeros(2)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -2.0])
        np.testing.assert_array_equal(opt.m[0], np.zeros(2))
        np.testing.assert_array_equal(opt.v[0], np.zeros(2))

    def test_single_step_hand_evaluated(self):
        # hand-evaluated Adam recurrence at t=1 with g=1:
        # m_hat = 1, v_hat = 1, delta = -lr / (1 + eps)
        p = Tensor([0.0])
        opt = Adam([p], lr=0.001, betas=(0.9, 0.999), eps=1e-8,
                   weight_decay=0.0)
        p.grad = np.ones(1)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.001], atol=1e-6)

    def test_decoupled_decay_applied_before_adam_delta(self):
        p = Tensor([2.0])
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        # pure shrink: 2.0 - 0.1 * 0.5 * 2.0
        np.testing.assert_allclose(p.data, [1.9])

    def test_paper_mirror_defaults(self):
        opt = Adam([Tensor([0.0])])
        assert opt.weight_decay == 1e-3
        assert opt.lr == 1e-5
        cfg = TrainConfig()
        assert (cfg.weight_decay, cfg.batch_size, cfg.epochs,
                cfg.learning_rate) == (1e-3, 72, 60, 1e-5)

    def test_shape_mismatch_rejected(self):
        p = Tensor([1.0, 2.0])
        opt = Adam([p], lr=0.01)
        p.grad = np.zeros(3)
        with pytest.raises(ConfigError):
            opt.step()

    def test_missing_gradient_rejected(self):
        opt = Adam([Tensor([1.0])])
        with pytest.raises(ConfigError):
            opt.step()

    @pytest.mark.parametrize("bad", ["gradient", "value"])
    def test_non_finite_leaves_every_parameter_unchanged(self, bad):
        params = [("a", Tensor([1.0, 2.0])), ("b", Tensor([3.0]))]
        opt = Adam(params, lr=0.1)
        for _, p in params:
            p.grad = np.ones_like(p.data)
        target = params[1][1]
        if bad == "gradient":
            target.grad[0] = np.nan
        else:
            target.data[0] = np.inf
        before = [p.data.copy() for _, p in params]
        with pytest.raises(NumericError, match=f"non-finite {bad} in b"):
            opt.step()
        for (_, p), b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)
        assert opt.step_count == 0
        assert all(not m.any() for m in opt.m)

    def test_flat_buffer_matches_a_per_block_loop(self):
        """Three steps with weight decay, backward-style gradients in the
        buffer's views and one gradient set directly, bit for bit against
        the Adam recurrence run block by block."""
        rng = np.random.default_rng(5)
        shapes = [(4, 3), (5,), (2, 2, 2), (3,)]
        params = [(f"b{k}", Tensor(rng.normal(size=shape)))
                  for k, shape in enumerate(shapes)]
        lr, (beta1, beta2), eps, decay = 0.01, (0.8, 0.99), 1e-6, 0.1
        opt = Adam(params, lr=lr, betas=(beta1, beta2), eps=eps,
                   weight_decay=decay)
        values = [p.data.copy() for _, p in params]
        ms = [np.zeros(shape) for shape in shapes]
        vs = [np.zeros(shape) for shape in shapes]
        for t in range(1, 4):
            grads = [rng.normal(size=shape) for shape in shapes]
            opt.zero_grad()
            for (_, p), g in zip(params[:-1], grads):
                p._accumulate(g)
            params[-1][1].grad = grads[-1].copy()
            opt.step()
            for p, m, v, g in zip(values, ms, vs, grads):
                p -= lr * decay * p
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                m_hat = m / (1.0 - beta1 ** t)
                v_hat = v / (1.0 - beta2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for (_, p), m, v, value, m_ref, v_ref in zip(
                    params, opt.m, opt.v, values, ms, vs):
                for got, want in ((p.data, value), (m, m_ref), (v, v_ref)):
                    np.testing.assert_array_equal(got.view(np.uint64),
                                                  want.view(np.uint64))

    def test_non_finite_middle_block_changes_nothing(self):
        params = [(name, Tensor(np.full(3, 1.0 + k)))
                  for k, name in enumerate("abc")]
        opt = Adam(params, lr=0.1)
        opt.zero_grad()
        for _, p in params:
            p.grad += 0.5
        opt.step()
        opt.zero_grad()
        for _, p in params:
            p.grad += 0.25
        params[1][1].grad[2] = np.inf
        before = [(p.data.copy(), m.copy(), v.copy())
                  for (_, p), m, v in zip(params, opt.m, opt.v)]
        with pytest.raises(NumericError, match="non-finite gradient in b"):
            opt.step()
        assert opt.step_count == 1
        for ((_, p), m, v), saved in zip(zip(params, opt.m, opt.v), before):
            for now, then in zip((p.data, m, v), saved):
                np.testing.assert_array_equal(now, then)

    def test_step_counter_increments(self):
        p = Tensor([1.0])
        opt = Adam([p], weight_decay=0.0)
        p.grad = np.zeros(1)
        for expected in range(1, 4):
            opt.step()
            assert opt.step_count == expected

    @pytest.mark.parametrize("kwargs", [
        {"lr": -1e-3}, {"lr": math.nan}, {"lr": math.inf},
        {"betas": (1.0, 0.999)}, {"betas": (0.9, -0.1)},
        {"betas": (0.9, math.nan)},
        {"eps": 0.0}, {"eps": -1e-8},
        {"weight_decay": -0.1}, {"weight_decay": math.inf},
        {"weight_decay": math.nan},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_argument_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Adam([Tensor([1.0])], **kwargs)

    def test_zero_lr_accepted(self):
        assert Adam([Tensor([1.0])], lr=0.0).lr == 0.0


# 1e-5 halved every 20 epochs, the schedule of the second-stage recipe.
STAIRCASE = TrainConfig(learning_rate=1e-5, lr_decay_factor=0.5,
                        lr_decay_period=20)


class TestLrSchedule:
    def test_epoch_zero(self):
        assert STAIRCASE.lr_at_epoch(0) == 1e-5

    def test_halving_every_20_epochs(self):
        assert STAIRCASE.lr_at_epoch(20) == 5e-6
        assert STAIRCASE.lr_at_epoch(40) == 2.5e-6

    def test_staircase_boundary(self):
        assert STAIRCASE.lr_at_epoch(19) == 1e-5

    def test_full_staircase(self):
        for e in range(60):
            expected = 1e-5 * 0.5 ** (e // 20)
            assert STAIRCASE.lr_at_epoch(e) == expected
            assert expected > 0

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig().lr_at_epoch(-1)
