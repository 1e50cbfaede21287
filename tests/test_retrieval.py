import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from hrgenet import cli
from hrgenet.data import FeatureDataset, ShapeRecord, write_records
from hrgenet.errors import ConfigError, EmptyInputError
from hrgenet.graph import HrgeModel
from hrgenet.retrieval import (
    QUERY_BLOCK,
    DescriptorIndex,
    MetricsReport,
    aggregate,
    build_index,
    evaluate_retrieval,
    extract_descriptor,
    pairwise_distances,
    ranking_metrics,
)


def brute_force_ranking(vectors, q, tau=math.inf, fine=None):
    """Corpus rows ranked for query row q, and their distances: the
    per-row norm of the difference, then explicit loops."""
    dists = np.linalg.norm(vectors - vectors[q], axis=1)
    kept = sorted((float(dists[j]), j) for j in range(len(vectors))
                  if j != q and dists[j] <= tau)
    if fine is not None:
        kept = ([t for t in kept if fine[t[1]] == fine[q]]
                + [t for t in kept if fine[t[1]] != fine[q]])
    return [j for _, j in kept], [d for d, _ in kept]


def loop_metrics(flags, total_relevant):
    """Metric suite of one ranked list by explicit loops; cutoff N is
    total_relevant."""
    hits, ap, dcg, idcg = 0, 0.0, 0.0, 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            ap += hits / rank
            dcg += 1.0 / math.log2(1 + rank)
    for rank in range(1, total_relevant + 1):
        idcg += 1.0 / math.log2(1 + rank)
    n = total_relevant
    tp = sum(bool(f) for f in flags[:n])
    p = tp / n
    r = tp / total_relevant
    f1 = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
    return {"p_at_n": p, "r_at_n": r, "f1_at_n": f1,
            "map": ap / total_relevant, "ndcg": dcg / idcg}


def brute_force_metrics(vectors, labels, tau=math.inf, fine=None):
    """Independent retrieval evaluator: explicit loops throughout."""
    m = len(labels)
    per_query, query_labels = [], []
    for q in range(m):
        total_relevant = sum(1 for j in range(m)
                             if j != q and labels[j] == labels[q])
        if total_relevant == 0:
            continue
        order, _ = brute_force_ranking(vectors, q, tau, fine)
        flags = [labels[j] == labels[q] for j in order]
        per_query.append(loop_metrics(flags, total_relevant))
        query_labels.append(labels[q])
    micro = {k: sum(q[k] for q in per_query) / len(per_query)
             for k in per_query[0]}
    macro = {}
    classes = sorted(set(query_labels))
    for k in per_query[0]:
        means = []
        for c in classes:
            vals = [q[k] for q, lab in zip(per_query, query_labels)
                    if lab == c]
            means.append(sum(vals) / len(vals))
        macro[k] = sum(means) / len(means)
    return micro, macro


def random_index(seed, size, dim=6, classes=4, duplicates=0):
    """Unit vectors with random labels; the last ``duplicates`` rows copy
    earlier rows exactly, so their distances tie."""
    r = np.random.default_rng(seed)
    vectors = r.normal(size=(size, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if duplicates:
        vectors[size - duplicates:] = vectors[
            r.integers(0, size - duplicates, size=duplicates)]
    labels = r.integers(0, classes, size=size)
    return DescriptorIndex(ids=[f"s{k}" for k in range(size)],
                           labels=labels, vectors=vectors)


def evaluate_blocks(index, **kwargs):
    """(report, blocks): `evaluate_retrieval`'s report and every block it
    emitted, in order."""
    blocks = []
    report = evaluate_retrieval(index, emit=lambda *block: blocks.append(block),
                                **kwargs)
    return report, blocks


def ranked_rows(blocks):
    """(query row, ranked corpus rows, distances) of every evaluated
    query, from the blocks `evaluate_retrieval` emitted."""
    return [(q, row[:n].tolist(), dist[:n].tolist())
            for queries, order, dists, kept in blocks
            for q, row, dist, n in zip(queries, order, dists, kept)]


def assert_matches_brute_force(index, tau=math.inf, fine=None):
    """Ranked rows, distances and relevance equal the oracle's exactly;
    the metrics to 1e-12.  Each block's arrays end at its widest kept
    row."""
    predict = None if fine is None else dict(zip(index.ids, fine)).__getitem__
    report, blocks = evaluate_blocks(index, threshold=tau,
                                     predict_fine=predict)
    labels = index.labels
    evaluated = [q for q in range(len(index))
                 if (labels == labels[q]).sum() > 1]
    for queries, order, dists, kept in blocks:
        assert 1 <= len(queries) <= QUERY_BLOCK
        assert order.shape == dists.shape == (len(queries), kept.max())
    rows = ranked_rows(blocks)
    assert [q for q, _, _ in rows] == evaluated
    for q, ranked, distances in rows:
        order, dists = brute_force_ranking(index.vectors, q, tau, fine)
        assert ranked == order
        assert distances == dists
        assert ((labels[ranked] == labels[q]).tolist()
                == [labels[j] == labels[q] for j in order])
    micro, macro = brute_force_metrics(index.vectors, labels, tau, fine)
    for key in micro:
        assert report.micro[key] == pytest.approx(micro[key], abs=1e-12)
        assert report.macro[key] == pytest.approx(macro[key], abs=1e-12)


def metrics_of(flags, total_relevant):
    """The metric suite of one ranked list, as a block of one."""
    return {k: v[0] for k, v in
            ranking_metrics([flags], [total_relevant]).items()}


class TestAveragePrecision:
    def test_all_relevant(self):
        assert metrics_of([1, 1, 1], 3)["map"] == 1.0

    def test_hand_case_five_sixths(self):
        assert metrics_of([1, 0, 1], 2)["map"] == pytest.approx(5.0 / 6.0)

    def test_nothing_retrieved(self):
        assert metrics_of([0, 0], 1)["map"] == 0.0

    def test_missing_relevant_counts_against(self):
        # one relevant retrieved at rank 1, but two exist in the corpus
        assert metrics_of([1, 0], 2)["map"] == pytest.approx(0.5)


def prf(flags, total_relevant):
    m = metrics_of(flags, total_relevant)
    return m["p_at_n"], m["r_at_n"], m["f1_at_n"]


class TestPrecisionRecallF1:
    def test_perfect_ranking(self):
        assert prf([1, 1, 1], 3) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        assert prf([1, 0], 2) == (0.5, 0.5, 0.5)

    def test_nothing_relevant(self):
        assert prf([0, 0, 0], 2) == (0.0, 0.0, 0.0)


class TestNdcg:
    def test_ideal_ordering(self):
        assert metrics_of([1, 1, 0, 0], 2)["ndcg"] == pytest.approx(1.0)

    def test_hand_case_log2_3(self):
        assert metrics_of([0, 1], 1)["ndcg"] == pytest.approx(
            1.0 / math.log2(3))

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInputError):
            ranking_metrics(np.zeros((1, 0), dtype=bool), [1])


class TestRankingMetrics:
    def test_equal_to_loops_bit_for_bit(self):
        r = np.random.default_rng(5)
        relevance = r.random((40, 30)) < 0.3
        kept = r.integers(0, 31, size=40)
        relevance &= np.arange(30) < kept[:, None]
        total = np.maximum(relevance.sum(axis=1), 1) + r.integers(0, 8, 40)
        got = ranking_metrics(relevance, total)
        for i in range(40):
            want = loop_metrics(list(relevance[i, :kept[i]]), int(total[i]))
            for key, value in want.items():
                assert got[key][i] == value, (i, key)


class TestAggregate:
    def test_single_class_micro_equals_macro(self):
        per_query = {k: [0.5, 1.0, 0.25] for k in
                     ("p_at_n", "r_at_n", "f1_at_n", "map", "ndcg")}
        report = aggregate(per_query, [0, 0, 0])
        assert report.micro == report.macro

    def test_unbalanced_hand_case(self):
        keys = ("p_at_n", "r_at_n", "f1_at_n", "map", "ndcg")
        per_query = dict.fromkeys(keys, [1.0, 1.0, 1.0, 0.0])
        report = aggregate(per_query, [0, 0, 0, 1])
        assert report.micro["map"] == pytest.approx(0.75)
        assert report.macro["map"] == pytest.approx(0.5)


class TestRetrieve:
    """One query's ranked list, from a leave-one-out evaluation of an
    index holding that query as "q" (class 0) beside the others."""

    def make_index(self):
        vectors = np.eye(4)
        return DescriptorIndex(ids=["a", "b", "c", "d"],
                               labels=np.array([0, 0, 1, 1]),
                               vectors=vectors)

    def rank(self, index, query, **kwargs):
        with_query = DescriptorIndex(
            ids=index.ids + ["q"], labels=np.append(index.labels, 0),
            vectors=np.vstack([index.vectors, query]))
        _, blocks = evaluate_blocks(with_query, **kwargs)
        return next(([with_query.ids[j] for j in ranked], distances)
                    for q, ranked, distances in ranked_rows(blocks)
                    if with_query.ids[q] == "q")

    def test_pure_distance_ranking(self):
        index = self.make_index()
        query = np.array([1.0, 0.1, 0.0, 0.0])
        ids, distances = self.rank(index, query)
        assert ids[0] == "a"
        assert distances == sorted(distances)

    def test_query_excluded_from_results(self):
        _, blocks = evaluate_blocks(self.make_index())
        rows = ranked_rows(blocks)
        assert [q for q, _, _ in rows] == [0, 1, 2, 3]
        for q, ranked, _ in rows:
            assert q not in ranked

    def test_threshold_drops_far_items(self):
        index = self.make_index()
        query = np.array([1.0, 0.0, 0.0, 0.0])
        ids, _ = self.rank(index, query, threshold=1.0)
        assert ids == ["a"]

    def test_invalid_threshold_rejected(self):
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError):
                evaluate_retrieval(self.make_index(), threshold=threshold)

    def test_empty_index_rejected(self):
        index = DescriptorIndex(ids=[], labels=np.array([]),
                                vectors=np.zeros((0, 4)))
        with pytest.raises(EmptyInputError):
            evaluate_retrieval(index)

    def test_rerank_identity_when_all_share_fine_label(self):
        index = self.make_index()
        query = np.array([0.2, 0.3, 0.1, 0.4])
        plain, _ = self.rank(index, query)
        reranked, _ = self.rank(index, query, predict_fine=lambda _id: 7)
        assert reranked == plain

    def test_rerank_stable_partition_hand_case(self):
        # five items at hand-placed distances with mixed fine labels
        vectors = np.zeros((5, 1))
        vectors[:, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        index = DescriptorIndex(ids=list("abcde"),
                                labels=np.zeros(5, dtype=int),
                                vectors=vectors)
        fine = {"q": 1, "a": 0, "b": 1, "c": 0, "d": 1, "e": 0}
        ids, _ = self.rank(index, np.array([0.0]),
                           predict_fine=fine.__getitem__)
        # same-fine items (b, d) promoted, order inside partitions kept
        assert ids == ["b", "d", "a", "c", "e"]


class TestExtractDescriptor:
    def test_unit_norm(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="full", seed=1)
        desc = extract_descriptor(model, rng.normal(size=(12, 4)))
        assert abs(np.linalg.norm(desc) - 1.0) < 1e-9

    def test_identical_shapes_distance_zero(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="full", seed=1)
        views = rng.normal(size=(12, 4))
        a = extract_descriptor(model, views)
        b = extract_descriptor(model, views.copy())
        assert np.linalg.norm(a - b) == 0.0

    def test_cyclic_shift_by_four_gives_distance_zero(self, rng):
        model = HrgeModel(num_views=12, width=4, variant="full", seed=1)
        views = rng.normal(size=(12, 4))
        a = extract_descriptor(model, views)
        b = extract_descriptor(model, np.roll(views, 4, axis=0))
        assert np.linalg.norm(a - b) < 1e-9


class TestEvaluateRetrieval:
    def test_matches_brute_force_on_random_corpora(self):
        for seed in range(10):
            assert_matches_brute_force(random_index(seed, 20))

    def test_matches_brute_force_with_tau_and_fine_labels(self):
        for seed in range(10):
            index = random_index(seed, 20)
            fine = np.random.default_rng(100 + seed).integers(0, 3, size=20)
            # the last tau equals one distance exactly, which stays kept
            at_tau = float(np.linalg.norm(index.vectors[1:2]
                                          - index.vectors[0], axis=1)[0])
            for tau in (0.8, 1.2, math.inf, at_tau):
                assert_matches_brute_force(index, tau, fine)
                assert_matches_brute_force(index, tau)

    def test_matches_brute_force_with_exact_ties(self):
        for seed in range(5):
            index = random_index(seed, 24, duplicates=8)
            fine = np.random.default_rng(200 + seed).integers(0, 2, size=24)
            assert_matches_brute_force(index)
            assert_matches_brute_force(index, 1.0, fine)

    def test_nan_distances_are_dropped(self):
        index = random_index(3, 20, duplicates=4)
        index.vectors[5] = np.nan
        fine = np.random.default_rng(3).integers(0, 2, size=20)
        for tau in (1.0, math.inf):
            assert_matches_brute_force(index, tau, fine)
        _, blocks = evaluate_blocks(index)
        assert all(5 not in ranked for _, ranked, _ in ranked_rows(blocks))

    @pytest.mark.parametrize("size", [QUERY_BLOCK - 1, QUERY_BLOCK,
                                      QUERY_BLOCK + 1, 2 * QUERY_BLOCK + 1])
    def test_matches_brute_force_at_block_edges(self, size):
        index = random_index(size, size, duplicates=size // 4)
        fine = np.random.default_rng(size).integers(0, 3, size=size)
        # two classes: every query runs, so blocks end at the edges
        index.labels = np.arange(size) % 2
        assert_matches_brute_force(index, 1.1, fine)
        # size / 2 classes: singleton classes are skipped
        index.labels = np.random.default_rng(size).integers(0, size // 2,
                                                            size=size)
        assert_matches_brute_force(index, 1.1, fine)
        # two classes beside singleton classes at the first and last rows
        # of each block and inside one: skipped rows whose distances the
        # later blocks still mirror
        index.labels = np.arange(size) % 2
        edges = {0, QUERY_BLOCK // 2, QUERY_BLOCK - 1, QUERY_BLOCK, size - 1}
        for k, row in enumerate(sorted(r for r in edges if r < size)):
            index.labels[row] = 2 + k
        assert_matches_brute_force(index, 1.1, fine)
        assert_matches_brute_force(index)

    def test_evaluating_and_writing_rankings_is_memory_bounded(self):
        # 2000 queries at tau inf: kept, the rankings alone would take
        # 16 bytes per candidate, 64 MB.  Streamed to the CLI's row
        # writer, the peak is one block of (QUERY_BLOCK, 2000) work
        # arrays beside the mirrored distances, 8 MB at the middle block.
        index = random_index(0, 2000, dim=96, classes=20)
        with open(os.devnull, "w") as sink:
            emit = cli._ranked_writer(sink, index.ids)
            tracemalloc.start()
            try:
                evaluate_retrieval(index, emit=emit)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("size", [1, 3])
    def test_all_queries_skipped_is_empty_input(self, size):
        index = DescriptorIndex(ids=[f"s{k}" for k in range(size)],
                                labels=np.arange(size),
                                vectors=np.eye(size))
        with pytest.raises(EmptyInputError):
            evaluate_retrieval(index)

    def test_tiled_distances_equal_per_row_norm_bit_for_bit(self):
        # the geometry of the retrieve-n12 index: 500 unit vectors, D=96
        vectors = random_index(0, 500, dim=96).vectors
        for block in (1, 2, 8, QUERY_BLOCK):
            for start in (0, 500 - block):
                rows = vectors[start:start + block]
                want = np.stack([np.linalg.norm(vectors - row, axis=1)
                                 for row in rows])
                assert np.array_equal(pairwise_distances(rows, vectors),
                                      want)

    @pytest.mark.parametrize("case", ["duplicates", "nan", "signed zero"])
    def test_distances_are_bitwise_symmetric(self, case):
        # D=96, the descriptor length of the retrieve-n12 index
        vectors = random_index(1, 40, dim=96).vectors
        if case == "duplicates":
            vectors[30:] = vectors[:10]
        elif case == "nan":
            vectors[7] = np.nan
            vectors[33, 5] = np.nan
        else:
            vectors[::2, :48] = 0.0
            vectors[1::2] = vectors[::2]
            vectors[1::2, :48] = -0.0
        for a, b in ((vectors[:25], vectors[10:]), (vectors, vectors),
                     (vectors[3:4], vectors)):
            forward = pairwise_distances(a, b)
            backward = pairwise_distances(b, a).T
            assert np.array_equal(forward.view(np.uint64),
                                  backward.view(np.uint64))

    def test_singleton_class_queries_skipped(self, rng):
        vectors = rng.normal(size=(5, 3))
        labels = np.array([0, 0, 0, 0, 1])
        index = DescriptorIndex(ids=[f"s{k}" for k in range(5)],
                                labels=labels, vectors=vectors)
        report = evaluate_retrieval(index)
        assert report.skipped_queries == ["s4"]

    def test_build_index_from_dataset(self, rng):
        model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
        records = [ShapeRecord(id=f"s{k}", views=rng.normal(size=(6, 3)),
                               coarse_label=k % 2) for k in range(6)]
        dataset = FeatureDataset(records=records, num_classes=2)
        index = build_index(model, dataset)
        assert len(index) == 6
        norms = np.linalg.norm(index.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestMetricsReport:
    def test_round_trips_through_parser(self, tmp_path):
        keys = ("p_at_n", "r_at_n", "f1_at_n", "map", "ndcg")
        report = MetricsReport(
            micro=dict(zip(keys, (0.5, 0.25, 1 / 3, 0.125, 0.99))),
            macro=dict(zip(keys, (0.4, 0.3, 0.2, 0.1, 0.05))),
            skipped_queries=["a", "b:1"])
        path = tmp_path / "metrics.txt"
        write_records(path, [report.record()])
        [line] = path.read_text().splitlines()
        assert json.loads(line) == {
            **{f"micro.{key}": report.micro[key] for key in keys},
            **{f"macro.{key}": report.macro[key] for key in keys},
            "skipped": ["a", "b:1"]}

    def test_table_has_both_blocks(self):
        keys = ("p_at_n", "r_at_n", "f1_at_n", "map", "ndcg")
        report = MetricsReport(micro=dict.fromkeys(keys, 0.5),
                               macro=dict.fromkeys(keys, 0.25))
        table = report.render_table()
        assert "micro" in table and "macro" in table
