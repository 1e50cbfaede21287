import json

import numpy as np
import pytest

from hrgenet.data import FeatureDataset, ShapeRecord, write_records
from hrgenet.errors import ConfigError, EmptyInputError
from hrgenet.graph import HrgeModel
from hrgenet.training import (
    Classifier,
    TrainConfig,
    evaluate_accuracy,
    predict_batch,
    train,
)


def make_dataset(rng, num_classes=2, per_class=4, num_views=4, dim=3):
    records = []
    protos = rng.normal(size=(num_classes, num_views, dim))
    for c in range(num_classes):
        for k in range(per_class):
            records.append(ShapeRecord(
                id=f"s{c}-{k}",
                views=protos[c] + 0.05 * rng.normal(size=(num_views, dim)),
                coarse_label=c))
    return FeatureDataset(records=records, num_classes=num_classes)


@pytest.fixture
def tiny_model():
    model = HrgeModel(num_views=4, width=3, variant="full", seed=1)
    classifier = Classifier(model.descriptor_length, 2, seed=2)
    return model, classifier


class TestPredict:
    def test_zero_head_gives_uniform_logits_label_zero(self, rng, tiny_model):
        model, classifier = tiny_model
        classifier.head.weight.data[...] = 0.0
        classifier.head.bias.data[...] = 0.0
        (logits,), (label,) = predict_batch(model, classifier,
                                            [rng.normal(size=(4, 3))])
        np.testing.assert_array_equal(logits, np.zeros(2))
        assert label == 0

    def test_aligned_head_row_wins(self, rng, tiny_model):
        model, classifier = tiny_model
        views = rng.normal(size=(4, 3))
        from hrgenet.graph import hrge_forward
        desc = hrge_forward(model, views).concat.data
        classifier.head.weight.data[...] = 0.0
        classifier.head.weight.data[1] = desc
        _, (label,) = predict_batch(model, classifier, [views])
        assert label == 1

    def test_baseline_predictions_permutation_invariant(self, rng):
        model = HrgeModel(num_views=6, width=3, variant="baseline", seed=0)
        classifier = Classifier(model.descriptor_length, 3, seed=1)
        views = rng.normal(size=(6, 3))
        (logits,), (label,) = predict_batch(model, classifier, [views])
        for _ in range(10):
            (logits_p,), (label_p,) = predict_batch(
                model, classifier, [views[rng.permutation(6)]])
            np.testing.assert_array_equal(logits_p, logits)
            assert label_p == label


class TestTrain:
    def test_zero_lr_keeps_parameters_and_loss_flat(self, rng, tiny_model):
        model, classifier = tiny_model
        dataset = make_dataset(rng)
        before = [p.data.copy() for p in
                  model.parameters() + classifier.parameters()]
        cfg = TrainConfig(batch_size=4, epochs=3, learning_rate=0.0,
                          weight_decay=0.0, seed=0)
        log = train(model, classifier, dataset, cfg)
        for p, b in zip(model.parameters() + classifier.parameters(), before):
            np.testing.assert_array_equal(p.data, b)
        losses = [r["loss"] for r in log.epoch_records()]
        assert max(losses) - min(losses) < 1e-12

    def test_memorizes_single_shape(self, rng):
        # a sufficiently wide head drives the loss to ~0 on one sample
        model = HrgeModel(num_views=4, width=16, variant="full", seed=1)
        classifier = Classifier(model.descriptor_length, 2, seed=2)
        record = ShapeRecord(id="only", views=rng.normal(size=(4, 16)),
                             coarse_label=1)
        dataset = FeatureDataset(records=[record], num_classes=2)
        cfg = TrainConfig(batch_size=1, epochs=200, learning_rate=1e-2,
                          weight_decay=0.0, lr_decay_period=1000, seed=0)
        log = train(model, classifier, dataset, cfg)
        assert log.epoch_records()[-1]["loss"] < 1e-3

    def test_empty_dataset_rejected(self, tiny_model):
        model, classifier = tiny_model
        with pytest.raises(EmptyInputError):
            train(model, classifier,
                  FeatureDataset(records=[], num_classes=2), TrainConfig())

    def test_label_outside_head_rejected(self, rng, tiny_model):
        model, classifier = tiny_model
        dataset = make_dataset(rng, num_classes=3)
        with pytest.raises(ConfigError):
            train(model, classifier, dataset,
                  TrainConfig(batch_size=4, epochs=1))

    @pytest.mark.parametrize("bad", [
        {"lr_decay_period": 0}, {"learning_rate": float("nan")},
        {"learning_rate": -1.0}, {"weight_decay": float("inf")},
        {"lr_decay_factor": float("nan")},
    ])
    def test_bad_config_rejected_at_construction(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    def test_deterministic_under_seed(self, rng):
        dataset = make_dataset(rng)
        runs = []
        for _ in range(2):
            model = HrgeModel(num_views=4, width=3, variant="full", seed=1)
            classifier = Classifier(model.descriptor_length, 2, seed=2)
            cfg = TrainConfig(batch_size=3, epochs=4, learning_rate=1e-3,
                              seed=9)
            log = train(model, classifier, dataset, cfg)
            runs.append((log.records,
                         [p.data.copy() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_over_first_steps(self, rng):
        # statistical sanity over seeds: early loss should drop
        wins = 0
        for seed in range(5):
            model = HrgeModel(num_views=4, width=3, variant="full", seed=seed)
            classifier = Classifier(model.descriptor_length, 2, seed=seed + 1)
            dataset = make_dataset(np.random.default_rng(seed), per_class=8)
            cfg = TrainConfig(batch_size=16, epochs=10, learning_rate=1e-2,
                              weight_decay=0.0, seed=seed)
            log = train(model, classifier, dataset, cfg)
            losses = [r["loss"] for r in log.epoch_records()]
            wins += losses[-1] < losses[0]
        assert wins >= 4

    def test_partial_last_batch_used(self, rng, tiny_model):
        model, classifier = tiny_model
        dataset = make_dataset(rng, per_class=3)  # 6 records
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=1e-3, seed=0)
        log = train(model, classifier, dataset, cfg)
        steps = [r for r in log.records if "acc" not in r]
        assert len(steps) == 2


class TestEvaluateAccuracy:
    def test_all_correct(self, rng):
        model = HrgeModel(num_views=4, width=3, variant="full", seed=1)
        classifier = Classifier(model.descriptor_length, 2, seed=2)
        dataset = make_dataset(rng, per_class=6)
        cfg = TrainConfig(batch_size=4, epochs=80, learning_rate=1e-2,
                          weight_decay=0.0, lr_decay_period=1000, seed=0)
        train(model, classifier, dataset, cfg)
        per_instance, per_class = evaluate_accuracy(model, classifier, dataset)
        assert per_instance == 1.0
        assert per_class == 1.0

    def test_unbalanced_hand_count(self, rng, monkeypatch):
        model = HrgeModel(num_views=4, width=3, variant="full", seed=1)
        classifier = Classifier(model.descriptor_length, 2, seed=2)
        records = ([ShapeRecord(id=f"a{k}", views=np.zeros((4, 3)),
                                coarse_label=0) for k in range(9)]
                   + [ShapeRecord(id="b0", views=np.zeros((4, 3)),
                                  coarse_label=1)])
        dataset = FeatureDataset(records=records, num_classes=2)
        # force predictions: class A all right, class B wrong
        preds = np.array([0] * 9 + [0])
        monkeypatch.setattr("hrgenet.training.predict_batch",
                            lambda *a, **k: (None, preds))
        per_instance, per_class = evaluate_accuracy(model, classifier, dataset)
        assert per_instance == pytest.approx(0.9)
        assert per_class == pytest.approx(0.5)

    def test_empty_dataset_rejected(self, tiny_model):
        model, classifier = tiny_model
        with pytest.raises(EmptyInputError):
            evaluate_accuracy(model, classifier,
                              FeatureDataset(records=[], num_classes=2))

    def test_balanced_classes_make_means_agree(self, rng, monkeypatch):
        model = HrgeModel(num_views=4, width=3, variant="full", seed=1)
        classifier = Classifier(model.descriptor_length, 2, seed=2)
        dataset = make_dataset(rng, num_classes=2, per_class=5)
        preds = np.array([0, 0, 0, 1, 1, 1, 1, 1, 0, 0])
        monkeypatch.setattr("hrgenet.training.predict_batch",
                            lambda *a, **k: (None, preds))
        per_instance, per_class = evaluate_accuracy(model, classifier, dataset)
        assert per_instance == pytest.approx(per_class)


class TestTrainLog:
    def test_round_trips_through_parser(self, rng, tiny_model, tmp_path):
        model, classifier = tiny_model
        dataset = make_dataset(rng)
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=1e-3, seed=0)
        log = train(model, classifier, dataset, cfg)
        path = tmp_path / "train.log"
        write_records(path, log.records)
        parsed = [json.loads(line) for line in path.read_text().splitlines()]

        def typed(records):
            return [[(k, type(v), v) for k, v in r.items()] for r in records]

        assert typed(parsed) == typed(log.records)
