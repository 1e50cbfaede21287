"""Acceptance gate: one test per criterion, each printing a pass line."""

import math
import time

import numpy as np
import pytest

from hrgenet import autograd as ag
from hrgenet.checkpoint import load_model, save_model
from hrgenet.data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
)
from hrgenet.errors import DataFormatError
from hrgenet.graph import HrgeModel, VARIANT_NAMES, hrge_forward
from hrgenet.retrieval import (
    DescriptorIndex,
    evaluate_retrieval,
    ranking_metrics,
)
from hrgenet.training import Classifier, TrainConfig, evaluate_accuracy, train

from conftest import finite_difference, max_rel_err
from test_graph import identity_plan, oracle_forward
from test_retrieval import brute_force_metrics


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_gradient_fidelity():
    start = time.time()
    model = HrgeModel(num_views=4, width=4, variant="full", stride=2,
                      depth=1, seed=11)
    classifier = Classifier(model.descriptor_length, 3, seed=12)
    rng = np.random.default_rng(13)
    views = rng.normal(size=(4, 4))
    labels = np.array([1])

    def loss_fn():
        desc = hrge_forward(model, views[None]).concat
        logits = ag.affine(desc, *classifier.head)
        return ag.softmax_cross_entropy(logits, labels)

    named = model.named_parameters() + classifier.named_parameters()
    for _, p in named:
        p.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for name, p in named:
        numeric = finite_difference(loss_fn, p, h=1e-5)
        worst = max(worst, max_rel_err(p.grad, numeric))
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    report(1, f"gradient fidelity: max rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_forward_oracle():
    model = HrgeModel(num_views=4, width=2, variant="full", stride=2,
                      depth=1, seed=21)
    views = np.random.default_rng(22).normal(size=(4, 2))
    desc = hrge_forward(model, views)
    expected = oracle_forward(model, views)
    worst = 0.0
    for block, want in zip(desc.blocks, expected):
        np.testing.assert_allclose(block.data, want, atol=1e-12)
        worst = max(worst, float(np.abs(block.data - want).max()))
    report(2, f"forward matches brute-force recomputation (max dev {worst:.1e})")


def test_criterion_3_symmetry_suite():
    model = HrgeModel(num_views=12, width=6, variant="full", seed=31)
    rng = np.random.default_rng(32)
    views = rng.normal(size=(12, 6))
    base = hrge_forward(model, views)
    # (a) 100 random permutations leave F_0 exactly unchanged
    for _ in range(100):
        perm = rng.permutation(12)
        f0 = hrge_forward(model, views[perm]).blocks[0].data
        np.testing.assert_array_equal(f0, base.blocks[0].data)
    # (b) cyclic shift by 4 preserves every block to 1e-9
    shifted = hrge_forward(model, np.roll(views, 4, axis=0))
    for a, b in zip(base.blocks, shifted.blocks):
        assert np.abs(a.data - b.data).max() <= 1e-9
    # (c) negative control: shift by 2 changes F_2 on >= 95/100 inputs
    changed = 0
    for _ in range(100):
        v = rng.normal(size=(12, 6))
        f2 = hrge_forward(model, v).blocks[2].data
        f2s = hrge_forward(model, np.roll(v, 2, axis=0)).blocks[2].data
        if np.abs(f2 - f2s).max() > 1e-9:
            changed += 1
    assert changed >= 95
    report(3, f"symmetry suite: F0 exact under 100 perms, shift-4 invariant, "
              f"shift-2 changed F2 on {changed}/100 inputs")


def test_criterion_4_separation_experiment():
    start = time.time()
    spec = SyntheticSpec(num_classes=4, shapes_per_class=50, num_views=12,
                         dim=32, noise=0.1, kind="relational-order", seed=11)
    dataset = generate_synthetic(spec)
    train_set, test_set = split(dataset, 0.7, seed=5)
    accs = {}
    for variant in ("baseline", "full"):
        model = HrgeModel(num_views=12, width=32, variant=variant, seed=1)
        classifier = Classifier(model.descriptor_length, 4, seed=2)
        cfg = TrainConfig(batch_size=16, epochs=30, learning_rate=1e-3,
                          weight_decay=1e-4, lr_decay_period=20, seed=3)
        train(model, classifier, train_set, cfg)
        accs[variant], _ = evaluate_accuracy(model, classifier, test_set)
    elapsed = time.time() - start
    assert 0.15 <= accs["baseline"] <= 0.35
    assert accs["full"] >= 0.90
    assert elapsed < 300.0
    report(4, f"separation: baseline {accs['baseline']:.3f} (chance band), "
              f"full {accs['full']:.3f} in {elapsed:.1f}s")


def test_criterion_5_variant_matrix():
    spec = SyntheticSpec(num_classes=3, shapes_per_class=6, num_views=12,
                         dim=8, noise=0.1, kind="prototype", seed=51)
    dataset = generate_synthetic(spec)
    for variant in VARIANT_NAMES:
        model = HrgeModel(num_views=12, width=8, variant=variant, seed=52)
        classifier = Classifier(model.descriptor_length, 3, seed=53)
        cfg = TrainConfig(batch_size=9, epochs=1, learning_rate=1e-3, seed=54)
        train(model, classifier, dataset, cfg)
        evaluate_accuracy(model, classifier, dataset)
    # ID variant's neighboring stage is an exact passthrough: its forward
    # has the bits of its plan run with no neighboring step
    model = HrgeModel(num_views=12, width=8, variant="id", seed=52)
    views = np.random.default_rng(55).normal(size=(12, 8))
    desc = hrge_forward(model, views)
    for block, want in zip(desc.blocks, identity_plan(model, views),
                           strict=True):
        np.testing.assert_array_equal(block.data, want.data)
    report(5, f"all {len(VARIANT_NAMES)} variants train and evaluate; "
              "ID neighboring is exact passthrough")


def test_criterion_6_block_normalization():
    rng = np.random.default_rng(61)
    views = rng.normal(size=(12, 5))
    for variant in ("full", "1l", "mp", "ap", "id", "baseline", "pr", "nr"):
        model = HrgeModel(num_views=12, width=5, variant=variant, seed=62)
        desc = hrge_forward(model, views)
        for block in desc.blocks:
            assert abs(np.linalg.norm(block.data) - 1.0) <= 1e-9
    won = HrgeModel(num_views=12, width=5, variant="won", seed=62)
    norms = [np.linalg.norm(b.data)
             for b in hrge_forward(won, views).blocks]
    assert any(abs(n - 1.0) > 1e-9 for n in norms)
    report(6, "unit block norms across variants; woN emits non-unit blocks")


def test_criterion_7_retrieval_metric_oracle():
    # worked hand examples first
    hand = ranking_metrics([[1, 0, 1], [0, 1, 0]], [2, 1])
    assert hand["map"][0] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert hand["ndcg"][1] == pytest.approx(1.0 / math.log2(3), abs=1e-12)
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        vectors = rng.normal(size=(20, 5))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=20)
        index = DescriptorIndex(ids=[f"s{k}" for k in range(20)],
                                labels=labels, vectors=vectors)
        result = evaluate_retrieval(index)
        micro, macro = brute_force_metrics(vectors, labels)
        for key in micro:
            assert result.micro[key] == pytest.approx(micro[key], abs=1e-12)
            assert result.macro[key] == pytest.approx(macro[key], abs=1e-12)
    report(7, "metric suite matches brute-force evaluator on 50 corpora "
              "plus hand examples")


def test_criterion_8_lr_schedule():
    schedule = TrainConfig(learning_rate=1e-5, lr_decay_factor=0.5,
                           lr_decay_period=20)
    for epoch in range(60):
        expected = (1e-5, 5e-6, 2.5e-6)[epoch // 20]
        assert schedule.lr_at_epoch(epoch) == expected
    report(8, "lr staircase: 1e-5 / 5e-6 / 2.5e-6 over epochs 0-59")


def test_criterion_9_persistence(tmp_path):
    rng = np.random.default_rng(91)
    # dataset round trip
    spec = SyntheticSpec(num_classes=2, shapes_per_class=3, num_views=6,
                         dim=4, kind="prototype", seed=92, fine_per_class=2)
    dataset = generate_synthetic(spec)
    d1, d2 = tmp_path / "a.hrgf", tmp_path / "b.hrgf"
    save_dataset(dataset, d1)
    save_dataset(load_dataset(d1), d2)
    assert d1.read_bytes() == d2.read_bytes()
    # model checkpoint round trip
    model = HrgeModel(num_views=6, width=4, variant="full", seed=93)
    classifier = Classifier(model.descriptor_length, 2, seed=94)
    m1, m2 = tmp_path / "a.hrgm", tmp_path / "b.hrgm"
    save_model(model, m1, classifier)
    loaded_model, loaded_clf = load_model(m1)
    save_model(loaded_model, m2, loaded_clf)
    assert m1.read_bytes() == m2.read_bytes()
    # corrupted files are rejected with located errors
    blob = d1.read_bytes()
    d1.write_bytes(blob[:len(blob) - 9])
    with pytest.raises(DataFormatError, match=r"byte \d+"):
        load_dataset(d1)
    blob = m1.read_bytes()
    m1.write_bytes(blob[:len(blob) - 9])
    with pytest.raises(DataFormatError, match="truncated"):
        load_model(m1)
    report(9, "HRGF and checkpoint round-trip byte-identically; "
              "corruption rejected with located errors")
