"""Descriptor-based shape retrieval and SHREC-style evaluation metrics.

Queries are ranked by L2 distance between unit-normalized global
descriptors, entries beyond a distance threshold are dropped, and an
optional sub-category predictor stably promotes same-sub-category items.
Metric cutoffs follow the SHREC convention: N equals the number of other
corpus items sharing the query's class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyInputError
from .graph import hrge_forward

METRIC_KEYS = ("p_at_n", "r_at_n", "f1_at_n", "map", "ndcg")


def extract_descriptor(model, views) -> np.ndarray:
    """Unit-normalized global descriptor of one shape (no gradients kept)."""
    desc = hrge_forward(model, views).concat.data
    norm = np.linalg.norm(desc)
    if norm < 1e-12:
        return desc.copy()
    return desc / norm


@dataclass
class DescriptorIndex:
    ids: list
    labels: np.ndarray
    vectors: np.ndarray
    fine_labels: np.ndarray | None = None

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("index ids must be unique")
        self.labels = np.asarray(self.labels)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)

    def __len__(self):
        return len(self.ids)


def build_index(model, dataset) -> DescriptorIndex:
    vectors = np.stack([extract_descriptor(model, r.views)
                        for r in dataset.records])
    fine = None
    if any(r.fine_label is not None for r in dataset.records):
        fine = np.array([-1 if r.fine_label is None else r.fine_label
                         for r in dataset.records])
    return DescriptorIndex(
        ids=[r.id for r in dataset.records],
        labels=np.array([r.coarse_label for r in dataset.records]),
        vectors=vectors, fine_labels=fine)


@dataclass
class RankedList:
    query_id: str
    ids: list
    distances: list
    relevance: list = field(default_factory=list)


def retrieve(index: DescriptorIndex, query_id: str, query_vec: np.ndarray,
             threshold: float = math.inf, predict_fine=None) -> RankedList:
    """Rank corpus items for one query.

    Sorts by ascending L2 distance (the query itself is excluded), drops
    entries farther than `threshold`, then, if `predict_fine` is given,
    stably moves items whose predicted sub-category matches the query's
    to the front, preserving order inside both partitions.
    """
    if len(index) == 0:
        raise EmptyInputError("cannot retrieve from an empty index")
    if not threshold > 0:
        raise ConfigError(f"distance threshold must be > 0, got {threshold}")
    dists = np.linalg.norm(index.vectors - query_vec, axis=1)
    order = np.argsort(dists, kind="stable")
    kept = [k for k in order
            if index.ids[k] != query_id and dists[k] <= threshold]
    if predict_fine is not None and kept:
        query_fine = predict_fine(query_id)
        same = [k for k in kept if predict_fine(index.ids[k]) == query_fine]
        other = [k for k in kept if predict_fine(index.ids[k]) != query_fine]
        kept = same + other
    return RankedList(
        query_id=query_id,
        ids=[index.ids[k] for k in kept],
        distances=[float(dists[k]) for k in kept])


def average_precision(flags, total_relevant: int) -> float:
    """AP over a ranked binary relevance list.

    Relevant corpus items missing from the list count against the score:
    the precision sum is divided by `total_relevant`, not by the number
    retrieved.
    """
    if total_relevant < 1:
        raise ConfigError("average_precision needs >= 1 relevant item")
    hits = 0
    prec_sum = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            prec_sum += hits / rank
    return prec_sum / total_relevant


def precision_recall_f1_at_n(flags, n: int, total_relevant: int):
    """(P, R, F1) at cutoff n; F1 is 0 when both P and R are 0."""
    if n < 1:
        raise ConfigError(f"cutoff must be >= 1, got {n}")
    hits = sum(bool(f) for f in flags[:n])
    precision = hits / n
    recall = hits / total_relevant if total_relevant else 0.0
    if precision + recall == 0.0:
        return 0.0, 0.0, 0.0
    f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def ndcg(flags, total_relevant: int) -> float:
    """Binary-gain NDCG with 1/log2(1 + rank) discount (rank 1 gains 1)."""
    if total_relevant < 1:
        raise ConfigError("ndcg needs >= 1 relevant item")
    if not len(flags):
        raise EmptyInputError("ndcg needs a non-empty ranked list")
    dcg = sum(1.0 / math.log2(1 + rank)
              for rank, flag in enumerate(flags, start=1) if flag)
    ideal = sum(1.0 / math.log2(1 + rank)
                for rank in range(1, total_relevant + 1))
    return dcg / ideal


@dataclass
class MetricsReport:
    """Micro (per-query mean) and macro (per-class mean) metric blocks."""

    micro: dict
    macro: dict
    skipped_queries: list = field(default_factory=list)

    def to_lines(self):
        lines = []
        for block_name, block in (("micro", self.micro), ("macro", self.macro)):
            for key in METRIC_KEYS:
                lines.append(f"{block_name}.{key}={block[key]:.10g}")
        if self.skipped_queries:
            lines.append("skipped=" + ",".join(self.skipped_queries))
        return lines

    @staticmethod
    def parse(text: str) -> "MetricsReport":
        micro, macro, skipped = {}, {}, []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key == "skipped":
                skipped = value.split(",") if value else []
            elif key.startswith("micro."):
                micro[key[6:]] = float(value)
            elif key.startswith("macro."):
                macro[key[6:]] = float(value)
        return MetricsReport(micro=micro, macro=macro, skipped_queries=skipped)

    def render_table(self) -> str:
        header = f"{'':8}" + "".join(f"{k:>10}" for k in METRIC_KEYS)
        rows = [header]
        for name, block in (("micro", self.micro), ("macro", self.macro)):
            rows.append(f"{name:8}" + "".join(
                f"{block[k]:10.4f}" for k in METRIC_KEYS))
        return "\n".join(rows)


def aggregate(per_query: list, labels: list) -> MetricsReport:
    """per_query: dicts keyed by METRIC_KEYS; labels: query class labels."""
    if not per_query:
        raise EmptyInputError("no evaluated queries to aggregate")
    labels = np.asarray(labels)
    micro = {k: float(np.mean([q[k] for q in per_query])) for k in METRIC_KEYS}
    macro = {}
    classes = np.unique(labels)
    for k in METRIC_KEYS:
        class_means = [float(np.mean([q[k] for q, lab in zip(per_query, labels)
                                      if lab == c]))
                       for c in classes]
        macro[k] = float(np.mean(class_means))
    return MetricsReport(micro=micro, macro=macro)


def evaluate_retrieval(index: DescriptorIndex, threshold: float = math.inf,
                       predict_fine=None):
    """Run every index item as a query and aggregate the metric suite.

    Queries whose class has no other corpus member are skipped and listed
    in the report notes.  Returns (report, ranked_lists).
    """
    per_query, labels, skipped, ranked_lists = [], [], [], []
    class_counts = {c: int((index.labels == c).sum())
                    for c in np.unique(index.labels)}
    id_to_label = dict(zip(index.ids, index.labels))
    for k, query_id in enumerate(index.ids):
        label = index.labels[k]
        total_relevant = class_counts[label] - 1
        ranked = retrieve(index, query_id, index.vectors[k],
                          threshold=threshold, predict_fine=predict_fine)
        if total_relevant < 1:
            skipped.append(query_id)
            continue
        flags = [id_to_label[i] == label for i in ranked.ids]
        ranked.relevance = flags
        ranked_lists.append(ranked)
        cutoff = total_relevant
        p, r, f1 = precision_recall_f1_at_n(flags, cutoff, total_relevant)
        per_query.append({
            "p_at_n": p, "r_at_n": r, "f1_at_n": f1,
            "map": average_precision(flags, total_relevant),
            "ndcg": ndcg(flags, total_relevant) if flags else 0.0,
        })
        labels.append(label)
    report = aggregate(per_query, labels)
    report.skipped_queries = skipped
    return report, ranked_lists
