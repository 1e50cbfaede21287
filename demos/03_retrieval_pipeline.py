"""End-to-end retrieval: train, index descriptors, rank, and score.

Builds a small labeled corpus, trains a relational model, indexes every
shape by its unit-normalized descriptor, then evaluates leave-one-out
retrieval with precision/recall/F1 at N, mean average precision, and NDCG.
"""

from hrgenet import (
    Classifier,
    HrgeModel,
    SyntheticSpec,
    TrainConfig,
    build_index,
    evaluate_retrieval,
    generate_synthetic,
    train,
)


def main():
    spec = SyntheticSpec(num_classes=3, shapes_per_class=10, num_views=12,
                         dim=16, noise=0.1, kind="prototype", seed=2)
    dataset = generate_synthetic(spec)
    model = HrgeModel(num_views=12, width=16, variant="full", seed=1)
    classifier = Classifier(model.descriptor_length, 3, seed=2)
    cfg = TrainConfig(batch_size=10, epochs=10, learning_rate=1e-3, seed=3)
    train(model, classifier, dataset, cfg)

    index = build_index(model, dataset)
    blocks = []
    report = evaluate_retrieval(index, emit=lambda *block: blocks.append(block))
    queries, order, dists, kept = blocks[0]
    query = dataset.records[queries[0]]
    print(f"query {query.id} (class {query.coarse_label}), top 5 neighbors:")
    for j, dist in zip(order[0, :min(5, kept[0])], dists[0]):
        print(f"  {index.ids[j]:>12}  distance {dist:.4f}")

    print()
    print(report.render_table())


if __name__ == "__main__":
    main()
