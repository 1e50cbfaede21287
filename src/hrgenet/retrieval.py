"""Descriptor-based shape retrieval and SHREC-style evaluation metrics.

Every index item is a leave-one-out query.  Candidates are ranked by L2
distance between unit-normalized global descriptors, entries beyond a
distance threshold are dropped, and an optional sub-category predictor
stably promotes same-sub-category items.  Queries are ranked and scored
in blocks of arrays, each distance computed once, and each block's
rankings are handed on as soon as they are ranked.  Metric cutoffs
follow the SHREC convention: N equals the number of other corpus items
sharing the query's class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .errors import ConfigError, EmptyInputError, NumericError
from .graph import hrge_forward

METRIC_KEYS = ("p_at_n", "r_at_n", "f1_at_n", "map", "ndcg")
# Queries ranked and scored together: per-block arrays are (QUERY_BLOCK, N).
QUERY_BLOCK = 64
# Bytes of one (queries, corpus tile, D) difference: small enough for L2.
TILE_BYTES = 1 << 18


def extract_descriptor(model, views) -> np.ndarray:
    """Unit-normalized global descriptor of one shape, from the grad-free
    forward."""
    desc = hrge_forward(model, views, grad=False).concat.data
    norm = ag.l2_norm(desc)
    return desc if norm < ag.DEGENERATE_NORM else desc / norm


@dataclass
class DescriptorIndex:
    ids: list
    labels: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("index ids must be unique")
        self.labels = np.asarray(self.labels)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)

    def __len__(self):
        return len(self.ids)


def build_index(model, dataset) -> DescriptorIndex:
    """One descriptor row per record; `NumericError` naming the first
    record whose descriptor is not finite."""
    vectors = np.stack([extract_descriptor(model, r.views)
                        for r in dataset.records])
    bad = ~np.isfinite(vectors).all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise NumericError(f"non-finite descriptor for record {k} "
                           f"({dataset.records[k].id!r})")
    return DescriptorIndex(
        ids=[r.id for r in dataset.records],
        labels=np.array([r.coarse_label for r in dataset.records]),
        vectors=vectors)


def pairwise_distances(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Exact L2 distances, (len(queries), len(corpus)), over corpus tiles
    that keep each (queries, tile, D) difference near `TILE_BYTES`.  Each
    difference is squared in place, summed with one `np.add.reduce` and
    its root taken into the result: the arithmetic of `np.linalg.norm`
    along the last axis, so the bits are its bits (2 - 2<a, b> would
    change last bits and reorder ties)."""
    out = np.empty((len(queries), len(corpus)))
    step = max(1, TILE_BYTES // (8 * max(1, queries.size)))
    for start in range(0, len(corpus), step):
        diff = corpus[start:start + step] - queries[:, None]
        diff *= diff
        np.sqrt(np.add.reduce(diff, axis=-1), out=out[:, start:start + step])
    return out


def _block_distances(vectors, start, mirror):
    """Exact L2 distances of the `QUERY_BLOCK` index rows from ``start``
    to every index row, from the upper triangle of the leave-one-out
    matrix.  Blocks are taken in index order.  Each computes its
    distances to its own rows and the rows after it and leaves in
    ``mirror`` (later block start -> tiles) the columns of each later
    block, transposed; the columns before it are the tiles earlier blocks
    left, freed once read.  So at most ``start * (len(vectors) - start)``
    mirrored distances are live.  ``c - q`` and ``q - c`` square to the
    same bits, so every distance is the one `pairwise_distances` gives
    its row."""
    tile = pairwise_distances(vectors[start:start + QUERY_BLOCK],
                              vectors[start:])
    for later in range(start + QUERY_BLOCK, len(vectors), QUERY_BLOCK):
        cols = tile[:, later - start:later - start + QUERY_BLOCK]
        mirror.setdefault(later, []).append(cols.T.copy())
    return np.hstack(mirror.pop(start) + [tile]) if start else tile


def _rank_block(dists, queries, threshold, fine):
    """(order, dists, kept) for the index rows ``queries`` and their
    distances to every index row: corpus positions by ascending distance,
    stably moving the query itself and candidates not within
    ``threshold`` (NaN too) to the back, then kept candidates whose
    ``fine`` label is the query's to the front; kept[i] counts row i's
    kept candidates."""
    order = np.argsort(dists, axis=1)
    ranked = np.take_along_axis(dists, order, axis=1)
    # Distinct distances have one ascending order, so only rows with a tie
    # or a NaN (sorted last) need a stable sort to keep ties in index order.
    ties = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
                          | np.isnan(ranked[:, -1]))
    if len(ties):
        order[ties] = np.argsort(dists[ties], axis=1, kind="stable")
        ranked[ties] = np.take_along_axis(dists[ties], order[ties], axis=1)
    dists = ranked
    dropped = (order == queries[:, None]) | ~(dists <= threshold)
    key = dropped.astype(np.uint8) * 2
    if fine is not None:
        key += fine[order] != fine[queries, None]
    promote = np.argsort(key, axis=1, kind="stable")
    order = np.take_along_axis(order, promote, axis=1)
    dists = np.take_along_axis(dists, promote, axis=1)
    return order, dists, dists.shape[1] - dropped.sum(axis=1)


@functools.lru_cache(maxsize=4)
def _discounts(length):
    """Read-only NDCG discounts 1/log2(1 + rank) for ranks 1..length,
    built once per list length."""
    discount = np.array([1.0 / math.log2(1 + rank)
                         for rank in range(1, length + 1)])
    discount.flags.writeable = False
    return discount


def ranking_metrics(relevance, total_relevant) -> dict:
    """METRIC_KEYS -> per-query values of ranked binary relevance rows.

    ``relevance`` is (queries, L), False past the end of a shorter list.
    ``total_relevant`` (>= 1 per query) is also the cutoff N; relevant
    items missing from a list count against recall and AP.  NDCG has
    binary gains and a 1/log2(1 + rank) discount.  Sums are sequential
    `np.cumsum`, so values keep the bits of a loop down each list.
    """
    rel = np.asarray(relevance, dtype=bool)
    total = np.asarray(total_relevant)
    if rel.ndim != 2 or rel.size == 0:
        raise EmptyInputError("ranking metrics need non-empty ranked lists")
    if np.any(total < 1):
        raise ConfigError("ranking metrics need >= 1 relevant item per query")
    length = rel.shape[1]
    hits = np.cumsum(rel, axis=1)
    at_n = hits[np.arange(len(rel)), np.minimum(total, length) - 1]
    precision = recall = at_n / total  # the cutoff N is total_relevant
    f1 = np.divide(2.0 * precision * recall, precision + recall,
                   out=np.zeros(len(rel)), where=precision > 0)
    # AP and DCG are each the last column of a cumsum over one reused
    # (queries, L) buffer; a relevance of 0 or 1 scales a term to 0.0 or
    # keeps its bits.
    buf = np.divide(hits, np.arange(1, length + 1))
    buf *= rel
    ap = np.cumsum(buf, axis=1, out=buf)[:, -1] / total
    discount = _discounts(max(length, int(total.max())))
    np.multiply(rel, discount[:length], out=buf)
    dcg = np.cumsum(buf, axis=1, out=buf)[:, -1]
    ndcg = dcg / np.cumsum(discount)[total - 1]
    return {"p_at_n": precision, "r_at_n": recall, "f1_at_n": f1,
            "map": ap, "ndcg": ndcg}


@dataclass
class MetricsReport:
    """Micro (per-query mean) and macro (per-class mean) metric blocks."""

    micro: dict
    macro: dict
    skipped_queries: list = field(default_factory=list)

    def record(self) -> dict:
        """One flat run-file record: ``micro.<key>`` and ``macro.<key>``
        for every metric key, then the skipped query ids."""
        record = {f"{name}.{key}": block[key]
                  for name, block in (("micro", self.micro),
                                      ("macro", self.macro))
                  for key in METRIC_KEYS}
        record["skipped"] = self.skipped_queries
        return record

    def render_table(self) -> str:
        header = f"{'':8}" + "".join(f"{k:>10}" for k in METRIC_KEYS)
        rows = [header]
        for name, block in (("micro", self.micro), ("macro", self.macro)):
            rows.append(f"{name:8}" + "".join(
                f"{block[k]:10.4f}" for k in METRIC_KEYS))
        return "\n".join(rows)


def aggregate(per_query: dict, labels) -> MetricsReport:
    """per_query: METRIC_KEYS -> per-query values; labels: query classes."""
    labels = np.asarray(labels)
    if not len(labels):
        raise EmptyInputError("no evaluated queries to aggregate")
    classes = np.unique(labels)
    micro, macro = {}, {}
    for k in METRIC_KEYS:
        values = np.asarray(per_query[k], dtype=np.float64)
        micro[k] = float(np.mean(values))
        macro[k] = float(np.mean([np.mean(values[labels == c])
                                  for c in classes]))
    return MetricsReport(micro=micro, macro=macro)


def check_threshold(threshold: float):
    """Raise `ConfigError` unless the distance threshold is > 0 (NaN is not)."""
    if not threshold > 0:
        raise ConfigError(f"distance threshold must be > 0, got {threshold}")


def evaluate_retrieval(index: DescriptorIndex, threshold: float = math.inf,
                       predict_fine=None, emit=None) -> MetricsReport:
    """Run every index item as a query and aggregate the metric suite.

    ``predict_fine`` (id -> predicted sub-category) is called once per
    id.  Queries whose class has no other corpus member are skipped and
    listed in the report.  Queries are ranked in blocks of `QUERY_BLOCK`
    index rows; after each block with a query, ``emit(queries, order,
    dists, kept)`` is called with the block's query rows, their ranked
    corpus rows and distances cut to the widest kept row, and their kept
    counts, in index order.  The arrays may be views, and no block is
    kept, so memory is one block of work arrays plus the mirrored
    distances of `_block_distances`.
    """
    check_threshold(threshold)
    _, label_pos, counts = np.unique(index.labels, return_inverse=True,
                                     return_counts=True)
    total = counts[label_pos] - 1
    evaluated = np.flatnonzero(total >= 1)
    fine = None
    if predict_fine is not None:
        fine = np.array([predict_fine(i) for i in index.ids])
    per_query = {k: np.empty(len(evaluated)) for k in METRIC_KEYS}
    done, mirror = 0, {}
    for start in range(0, len(index), QUERY_BLOCK):
        rows = np.flatnonzero(total[start:start + QUERY_BLOCK] >= 1)
        dists = _block_distances(index.vectors, start, mirror)[rows]
        if not len(rows):
            continue
        queries = start + rows
        order, dists, kept = _rank_block(dists, queries, threshold, fine)
        relevance = ((index.labels[order] == index.labels[queries, None])
                     & (np.arange(len(index)) < kept[:, None]))
        for k, values in ranking_metrics(relevance, total[queries]).items():
            per_query[k][done:done + len(queries)] = values
        done += len(queries)
        if emit is not None:
            width = kept.max()
            emit(queries, order[:, :width], dists[:, :width], kept)
    report = aggregate(per_query, index.labels[evaluated])
    report.skipped_queries = [index.ids[k] for k in np.flatnonzero(total < 1)]
    return report
