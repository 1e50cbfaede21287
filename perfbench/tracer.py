"""Outside-in tracer for one in-process `hrgenet` CLI invocation.

The tracer wraps public functions of the program's modules from the
benchmark's own files; nothing in the program changes. Each wrapper is
installed on the function's module attribute and on every other binding of
the same function object in the package (``from .graph import
hrge_forward`` and the like), and is removed again by `uninstall`. The
backward closure that each autograd op attaches to its output is wrapped
too, so backward time is attributed per op kind.

A span is ``(name id, start, end, parent span, level)``; spans stay in
memory and are written out after the invocation. A wrapper whose target no
longer exists is skipped, so its metrics read zero.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

OPS = ("add", "scale", "relu", "maximum", "affine", "take_rows",
       "segment_sum_rows", "concat_cols", "concat_vecs", "stack_rows",
       "maxpool_rows", "l2_normalize", "softmax_cross_entropy")
GRAPH_FNS = ("pairwise_relation", "neighboring_relation", "coarsen",
             "level_descriptor")
# Hierarchy levels reported per graph function: n=80 runs levels 0..4.
LEVELS = range(5)
LAYERS = ("cli", "data", "checkpoint", "training", "optim", "graph",
          "layers", "autograd", "retrieval")
METRIC_FNS = ("average_precision", "precision_recall_f1_at_n", "ndcg")

# span name -> (module, attribute path inside the module)
TARGETS = {
    "cli.main": ("hrgenet.cli", "main"),
    "data.load_dataset": ("hrgenet.data", "load_dataset"),
    "checkpoint.load_model": ("hrgenet.checkpoint", "load_model"),
    "checkpoint.save_model": ("hrgenet.checkpoint", "save_model"),
    "training.train": ("hrgenet.training", "train"),
    "training.predict_batch": ("hrgenet.training", "predict_batch"),
    "optim.step": ("hrgenet.optim", "Adam.step"),
    "graph.hrge_forward": ("hrgenet.graph", "hrge_forward"),
    **{f"graph.{fn}": ("hrgenet.graph", fn) for fn in GRAPH_FNS},
    "layers.mlp_forward": ("hrgenet.layers", "mlp_forward"),
    "layers.linear_forward": ("hrgenet.layers", "linear_forward"),
    "autograd.backward": ("hrgenet.autograd", "Tensor.backward"),
    **{f"autograd.{op}": ("hrgenet.autograd", op) for op in OPS},
    "retrieval.build_index": ("hrgenet.retrieval", "build_index"),
    "retrieval.evaluate_retrieval": ("hrgenet.retrieval", "evaluate_retrieval"),
    "retrieval.retrieve": ("hrgenet.retrieval", "retrieve"),
    "retrieval.aggregate": ("hrgenet.retrieval", "aggregate"),
    **{f"retrieval.{fn}": ("hrgenet.retrieval", fn) for fn in METRIC_FNS},
}


def _catalogue():
    """Every per-layer metric the tracer emits: (name, unit, better)."""
    out = [
        ("cli.self_s", "s", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("data.load_dataset.s", "s", "lower"),
        ("checkpoint.load_model.s", "s", "lower"),
        ("checkpoint.save_model.s", "s", "lower"),
        ("training.train.self_s", "s", "lower"),
        ("training.step_ms.p50", "ms", "lower"),
        ("training.step_ms.p90", "ms", "lower"),
        ("training.predict_batch.s", "s", "lower"),
        ("optim.step.s", "s", "lower"),
        ("optim.step.calls", "count", "lower"),
        ("graph.hrge_forward.calls", "count", "lower"),
        ("graph.hrge_forward.s", "s", "lower"),
        ("graph.forward_ms.p50", "ms", "lower"),
        ("graph.forward_ms.p90", "ms", "lower"),
        ("graph.pairs", "count", "lower"),
    ]
    out += [(f"graph.L{k}.{fn}.s", "s", "lower")
            for k in LEVELS for fn in GRAPH_FNS]
    out += [
        ("layers.mlp_forward.s", "s", "lower"),
        ("layers.linear_forward.s", "s", "lower"),
        ("layers.linear_forward.rows", "count", "lower"),
    ]
    for op in OPS:
        out += [(f"autograd.{op}.calls", "count", "lower"),
                (f"autograd.{op}.fwd_s", "s", "lower"),
                (f"autograd.{op}.bwd_s", "s", "lower"),
                (f"autograd.{op}.out_mb", "MB", "lower")]
    out += [
        ("autograd.backward.s", "s", "lower"),
        ("autograd.backward.self_s", "s", "lower"),
        ("autograd.grad_fn_used_ratio", "ratio", "higher"),
        ("retrieval.build_index.s", "s", "lower"),
        ("retrieval.build_index.shapes_per_s", "shapes/s", "higher"),
        ("retrieval.evaluate_retrieval.s", "s", "lower"),
        ("retrieval.evaluate_retrieval.queries_per_s", "queries/s", "higher"),
        ("retrieval.retrieve.ms_p50", "ms", "lower"),
        ("retrieval.retrieve.ms_p99", "ms", "lower"),
        ("retrieval.metrics.s", "s", "lower"),
        ("retrieval.aggregate.s", "s", "lower"),
        ("retrieval.kept_ratio", "ratio", "higher"),
        ("retrieval.predict_fine.calls", "count", "lower"),
    ]
    out += [(f"{layer}.self_s", "s", "lower")
            for layer in LAYERS if layer != "cli"]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


PER_LAYER = _catalogue()


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _tensor_of(out):
    """The Tensor an op returned; maxpool_rows and l2_normalize return pairs."""
    return out[0] if isinstance(out, tuple) else out


class Tracer:
    """Spans and counters of one traced invocation."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []
        self._descriptor_level = 0

    # -- installation -------------------------------------------------

    def install(self):
        for name, (modname, path) in TARGETS.items():
            self._patch(name, modname, path)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, name, modname, path):
        module = sys.modules.get(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = self._wrap(name, original)
        if owner_name:
            self._set(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "hrgenet":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    # -- spans --------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, nid, level, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (nid, start, end, parent, level)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        span = self._span
        short = name.partition(".")[2]
        if short in OPS:
            return self._wrap_op(short, nid, fn)
        if short in ("pairwise_relation", "neighboring_relation", "coarsen"):
            counts = self.counts
            pairs = short == "pairwise_relation"

            def graph_fn(*args, **kwargs):
                n = args[0].num_nodes
                if pairs:
                    counts["graph.pairs"] += n * (n - 1)
                return span(nid, args[0].level, fn, args, kwargs)
            return graph_fn
        if short == "level_descriptor":
            def descriptor(*args, **kwargs):
                level = self._descriptor_level
                self._descriptor_level += 1
                return span(nid, level, fn, args, kwargs)
            return descriptor
        if short == "hrge_forward":
            def forward(*args, **kwargs):
                self._descriptor_level = 0
                return span(nid, -1, fn, args, kwargs)
            return forward
        if short == "linear_forward":
            def linear(*args, **kwargs):
                self.counts["layers.linear_forward.rows"] += args[1].shape[0]
                return span(nid, -1, fn, args, kwargs)
            return linear
        if short == "evaluate_retrieval":
            def evaluate(*args, **kwargs):
                if kwargs.get("predict_fine") is not None:
                    kwargs["predict_fine"] = self._count_calls(
                        "retrieval.predict_fine.calls", kwargs["predict_fine"])
                return span(nid, -1, fn, args, kwargs)
            return evaluate

        def plain(*args, **kwargs):
            return span(nid, -1, fn, args, kwargs)
        return plain

    def _count_calls(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _wrap_op(self, op, nid, fn):
        bwd_nid = self._name_id(f"autograd.{op}.bwd")
        counts, span = self.counts, self._span

        def wrap_grad(grad_fn):
            def backward(g):
                counts["grads_run"] += 1
                return span(bwd_nid, -1, grad_fn, (g,), {})
            return backward

        def finish(*args, **kwargs):
            out = fn(*args, **kwargs)
            tensor = _tensor_of(out)
            counts[f"autograd.{op}.bytes"] += tensor.data.nbytes
            grad_fn = getattr(tensor, "_grad_fn", None)
            if grad_fn is not None:
                counts["grads_built"] += 1
                tensor._grad_fn = wrap_grad(grad_fn)
            return out

        def op_wrapper(*args, **kwargs):
            return span(nid, -1, finish, args, kwargs)
        return op_wrapper

    # -- results ------------------------------------------------------

    def write_spans(self, path, invocation):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "a") as f:
            for nid, start, end, parent, level in self.spans:
                f.write(f"{invocation}\t{self.names[nid]}\t"
                        f"{start - origin:.9f}\t{end - origin:.9f}\t"
                        f"{parent}\t{level}\n")

    def metrics(self, wall, untraced_wall, corpus, bytes_written,
                kept_ratio):
        """Per-layer metrics of this invocation, keyed by `PER_LAYER` name.

        ``.s`` is inclusive span time, ``.self_s`` span time minus the time
        its child spans cover. The layers' self times plus
        ``trace.unattributed_s`` add up to ``wall``.
        """
        names = self.names
        incl, calls, self_by = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        by_level = Counter()
        durations = defaultdict(list)
        step_ends = []
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (nid, start, end, parent, level) in enumerate(self.spans):
            name = names[nid]
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            self_by[name] += dur - child[idx]
            if level >= 0:
                by_level[f"graph.L{level}.{name.partition('.')[2]}.s"] += dur
            if name in ("graph.hrge_forward", "retrieval.retrieve"):
                durations[name].append(dur * 1e3)
            elif name == "optim.step":
                step_ends.append(end)
        layer_self = Counter()
        for name, value in self_by.items():
            layer_self[name.partition(".")[0]] += value
        steps_ms = np.diff(step_ends) * 1e3
        forward_ms = durations["graph.hrge_forward"]
        retrieve_ms = durations["retrieval.retrieve"]
        c = self.counts

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        m = {
            "cli.self_s": layer_self["cli"],
            "cli.bytes_written": bytes_written,
            "data.load_dataset.s": incl["data.load_dataset"],
            "checkpoint.load_model.s": incl["checkpoint.load_model"],
            "checkpoint.save_model.s": incl["checkpoint.save_model"],
            "training.train.self_s": self_by["training.train"],
            "training.step_ms.p50": _pct(steps_ms, 50),
            "training.step_ms.p90": _pct(steps_ms, 90),
            "training.predict_batch.s": incl["training.predict_batch"],
            "optim.step.s": incl["optim.step"],
            "optim.step.calls": calls["optim.step"],
            "graph.hrge_forward.calls": calls["graph.hrge_forward"],
            "graph.hrge_forward.s": incl["graph.hrge_forward"],
            "graph.forward_ms.p50": _pct(forward_ms, 50),
            "graph.forward_ms.p90": _pct(forward_ms, 90),
            "graph.pairs": c["graph.pairs"],
            **{f"graph.L{k}.{fn}.s": by_level[f"graph.L{k}.{fn}.s"]
               for k in LEVELS for fn in GRAPH_FNS},
            "layers.mlp_forward.s": incl["layers.mlp_forward"],
            "layers.linear_forward.s": incl["layers.linear_forward"],
            "layers.linear_forward.rows": c["layers.linear_forward.rows"],
        }
        for op in OPS:
            m[f"autograd.{op}.calls"] = calls[f"autograd.{op}"]
            m[f"autograd.{op}.fwd_s"] = incl[f"autograd.{op}"]
            m[f"autograd.{op}.bwd_s"] = incl[f"autograd.{op}.bwd"]
            m[f"autograd.{op}.out_mb"] = c[f"autograd.{op}.bytes"] / 1e6
        m.update({
            "autograd.backward.s": incl["autograd.backward"],
            "autograd.backward.self_s": self_by["autograd.backward"],
            "autograd.grad_fn_used_ratio": rate(c["grads_run"],
                                                c["grads_built"]),
            "retrieval.build_index.s": incl["retrieval.build_index"],
            "retrieval.build_index.shapes_per_s": rate(
                corpus, incl["retrieval.build_index"]),
            "retrieval.evaluate_retrieval.s":
                incl["retrieval.evaluate_retrieval"],
            "retrieval.evaluate_retrieval.queries_per_s": rate(
                corpus, incl["retrieval.evaluate_retrieval"]),
            "retrieval.retrieve.ms_p50": _pct(retrieve_ms, 50),
            "retrieval.retrieve.ms_p99": _pct(retrieve_ms, 99),
            "retrieval.metrics.s": sum(incl[f"retrieval.{fn}"]
                                       for fn in METRIC_FNS),
            "retrieval.aggregate.s": incl["retrieval.aggregate"],
            "retrieval.kept_ratio": kept_ratio,
            "retrieval.predict_fine.calls": c["retrieval.predict_fine.calls"],
        })
        for layer in LAYERS:
            if layer != "cli":
                m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - sum(layer_self.values())
        m["trace.overhead"] = rate(wall, untraced_wall)
        return {k: float(v) for k, v in m.items()}
