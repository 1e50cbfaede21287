"""Output checks, run outside the timed region.

Every check returns a list of problems; an empty list means the output is
correct. The retrieval oracle re-ranks sampled queries by brute force from
per-shape descriptors and per-shape fine-label predictions, so it does not
share the program's ranking code.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

from hrgenet import checkpoint, data
from hrgenet.graph import HrgeModel, hrge_forward
from hrgenet.retrieval import build_index, extract_descriptor
from hrgenet.training import Classifier

ORACLE_SAMPLE = 40


def digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def logits(model, classifier, views):
    """Head logits of one shape, computed without the batch path."""
    head = classifier.head
    desc = hrge_forward(model, views).concat.data
    return desc @ head.weight.data.T + head.bias.data


def cross_entropy(model, classifier, dataset):
    total = 0.0
    for rec in dataset.records:
        z = logits(model, classifier, rec.views)
        z = z - z.max()
        total += math.log(np.exp(z).sum()) - z[rec.coarse_label]
    return total / len(dataset.records)


def parameters_finite(model, classifier):
    params = model.parameters() + classifier.parameters()
    return all(np.isfinite(p.data).all() for p in params)


def probe_problems(model, dataset, seed):
    """Block 0 is bitwise invariant under a view permutation, and the
    probe's index row equals its descriptor computed alone."""
    rng = np.random.default_rng(seed)
    records = dataset.records
    probe = records[int(rng.integers(len(records)))]
    problems = []
    views = probe.views
    perm = rng.permutation(views.shape[0])
    block = hrge_forward(model, views).blocks[0].data
    permuted = hrge_forward(model, views[perm]).blocks[0].data
    if not np.array_equal(block, permuted):
        problems.append("probe: block 0 changed under a view permutation")
    others = [r for r in records if r.id != probe.id][:8]
    position = len(others) // 2
    batch = others[:position] + [probe] + others[position:]
    small = data.FeatureDataset(records=batch,
                                num_classes=dataset.num_classes,
                                num_fine_classes=dataset.num_fine_classes)
    row = build_index(model, small).vectors[position]
    if not np.array_equal(row, extract_descriptor(model, views)):
        problems.append("probe: index row differs from the descriptor of "
                        "the shape alone")
    return problems


class TrainCheck:
    """The checkpoint loads, is finite, and beats the training-set
    cross-entropy of the initial model that `hrgenet train --seed` builds."""

    def __init__(self, data_path, variant, seed):
        self.dataset = ds = data.load_dataset(data_path)
        model = HrgeModel(ds.num_views, ds.dim, variant, seed=seed)
        classifier = Classifier(model.descriptor_length, ds.num_classes,
                                seed=seed + 1)
        self.initial_ce = cross_entropy(model, classifier, ds)
        self.verified = None
        self.model = None

    def __call__(self, rc, out_dir):
        if rc != 0:
            return [f"train exited with {rc}"]
        path = f"{out_dir}/checkpoint.hrgm"
        key = digest(path)
        if key == self.verified:
            return []
        model, classifier = checkpoint.load_model(path)
        if classifier is None:
            return ["checkpoint holds no classifier head"]
        if not parameters_finite(model, classifier):
            return ["checkpoint has non-finite parameters"]
        ce = cross_entropy(model, classifier, self.dataset)
        if not ce < self.initial_ce:
            return [f"training cross-entropy {ce:.6g} is not below the "
                    f"initial {self.initial_ce:.6g}"]
        self.verified, self.model = key, model
        return []


_VALUE = re.compile(r"[=:]\s*([^\s,;}\]]+)")


def metric_values(text):
    """Numeric values of a metrics file, in key=value or JSON form."""
    values = []
    for token in _VALUE.findall(text):
        try:
            values.append(float(token))
        except ValueError:
            continue
    return values


def parse_ranked(line):
    query, _, row = line.rstrip("\n").partition("\t")
    ids, dists = [], []
    for item in row.split():
        rid, _, dist = item.rpartition(":")
        ids.append(rid)
        dists.append(float(dist))
    return query, ids, dists


class RetrieveCheck:
    """metrics.txt values are finite and in [0, 1]; a seeded sample of
    ranked.txt rows equals a brute-force ranking."""

    def __init__(self, data_path, coarse_path, fine_path, tau, seed):
        dataset = data.load_dataset(data_path)
        self.dataset = dataset
        self.tau = tau
        self.seed = seed
        self.ids = [r.id for r in dataset.records]
        model, _ = checkpoint.load_model(coarse_path)
        self.model = model
        self.vectors = np.stack([extract_descriptor(model, r.views)
                                 for r in dataset.records])
        fine_model, fine_clf = checkpoint.load_model(fine_path)
        self.fine = np.array([int(np.argmax(logits(fine_model, fine_clf,
                                                   r.views)))
                              for r in dataset.records])
        self.verified = None

    def oracle(self, q):
        dists = np.linalg.norm(self.vectors - self.vectors[q], axis=1)
        order = np.argsort(dists, kind="stable")
        kept = [k for k in order if k != q and dists[k] <= self.tau]
        same = [k for k in kept if self.fine[k] == self.fine[q]]
        other = [k for k in kept if self.fine[k] != self.fine[q]]
        kept = same + other
        return [self.ids[k] for k in kept], dists[kept]

    def __call__(self, rc, out_dir):
        if rc != 0:
            return [f"retrieve exited with {rc}"]
        metrics_path = f"{out_dir}/metrics.txt"
        ranked_path = f"{out_dir}/ranked.txt"
        key = digest(metrics_path, ranked_path)
        if key == self.verified:
            return []
        problems = []
        with open(metrics_path) as f:
            values = metric_values(f.read())
        if not values:
            problems.append("metrics.txt holds no values")
        bad = [v for v in values if not (math.isfinite(v) and 0 <= v <= 1)]
        if bad:
            problems.append(f"metrics.txt values outside [0, 1]: {bad[:5]}")
        with open(ranked_path) as f:
            rows = dict((q, (ids, dists)) for q, ids, dists
                        in map(parse_ranked, f))
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(self.ids), size=min(ORACLE_SAMPLE,
                                                    len(self.ids)),
                            replace=False)
        for q in sample:
            query = self.ids[q]
            if query not in rows:
                problems.append(f"ranked.txt has no row for {query}")
                continue
            ids, dists = rows[query]
            want_ids, want_dists = self.oracle(q)
            if ids != want_ids or not np.allclose(dists, want_dists,
                                                  rtol=1e-7, atol=0):
                problems.append(f"ranked.txt row {query} differs from the "
                                "brute-force ranking")
        if not problems:
            self.verified = key
        return problems

    def kept_ratio(self, out_dir):
        """Share of candidates that survive the threshold in ranked.txt."""
        kept = rows = 0
        with open(f"{out_dir}/ranked.txt") as f:
            for line in f:
                rows += 1
                kept += len(line.split("\t", 1)[1].split())
        n = len(self.ids)
        return kept / (rows * (n - 1)) if rows and n > 1 else 0.0
