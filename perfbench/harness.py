"""Workloads, set-up, timed loops and traced runs of the hrgenet benchmark.

Every timed operation is one in-process ``hrgenet.cli.main([...])`` call on
files the set-up generated. One caller runs a closed loop: each call starts
after the previous one returned and its output was checked, because users
run training and retrieval as batch jobs. End-to-end metrics come from
untraced calls only; a traced run reports per-layer metrics and its own
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

VARIANT = "full"
BATCH = 16
LR = 1e-3
# Set-up repetitions (input generation plus a warm-up call) whose median
# makes setup_s.
SETUP_REPEATS = 3
# Untrained checkpoints use fixed seeds: the spread of descriptor distances
# depends on the model far more than on the data, and a fixed model keeps
# the share of candidates under the threshold near one half on every seed.
COARSE_MODEL_SEED = 1
FINE_MODEL_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "train" or "retrieve"
    mode: str               # synthetic generator kind
    classes: int
    per_class: int
    views: int
    dim: int = 32
    fine_per_class: int = 0
    epochs: int = 1
    tau: float = math.inf

    @property
    def shapes(self):
        return self.classes * self.per_class

    @property
    def shapes_per_call(self):
        """Shapes one call processes: shapes x epochs, or one query each."""
        return self.shapes * (self.epochs if self.command == "train" else 1)

    def config_hash(self):
        blob = json.dumps({**asdict(self), "variant": VARIANT,
                           "batch": BATCH, "lr": LR}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (
    # Paper geometry: per-op interpreter cost dominates.
    Workload("train-n12", "train", "relational-order", 8, 50, 12, epochs=1),
    # Kernel-bound: level 0 has 6320 ordered pairs.
    Workload("stress-n80", "train", "relational-order", 4, 8, 80, epochs=1),
    # Forward-only model code plus the O(N^2) ranking and metric loops;
    # tau keeps about half of the candidates for the fixed model seeds.
    Workload("retrieve-n12", "retrieve", "prototype", 20, 25, 12,
             fine_per_class=4, tau=0.27),
)}


def import_program():
    """Import hrgenet from this checkout's src/ and nowhere else."""
    if not (SRC / "hrgenet" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hrgenet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hrgenet.cli  # noqa: F401  (loads every module the CLI uses)
    where = Path(sys.modules["hrgenet"].__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"hrgenet was imported from {where}, not {SRC}")


def invoke(argv):
    """One CLI call with its stdout discarded; returns the exit code, or
    None when the call raised."""
    from hrgenet import cli
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        return None


class Inputs:
    """Generated input files and the command that runs on them."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.data = work / "data.hrgf"
        self.coarse = work / "coarse.hrgm"
        self.fine = work / "fine.hrgm"
        self.out = work / "out"

    def generate(self):
        from hrgenet import checkpoint
        from hrgenet.graph import HrgeModel
        from hrgenet.training import Classifier
        w = self.w
        rc = invoke(["synth", "--mode", w.mode, "--classes", w.classes,
                     "--per-class", w.per_class, "--views", w.views,
                     "--dim", w.dim, "--fine-per-class", w.fine_per_class,
                     "--seed", self.seed, "--out", self.data])
        if rc != 0:
            raise RuntimeError(f"synth exited with {rc}")
        if w.command == "retrieve":
            for path, seed, classes in (
                    (self.coarse, COARSE_MODEL_SEED, w.classes),
                    (self.fine, FINE_MODEL_SEED, w.classes * w.fine_per_class)):
                model = HrgeModel(w.views, w.dim, VARIANT, seed=seed)
                checkpoint.save_model(model, path, Classifier(
                    model.descriptor_length, classes, seed=seed))

    def argv(self):
        w = self.w
        if w.command == "train":
            return ["train", "--data", self.data, "--variant", VARIANT,
                    "--epochs", w.epochs, "--batch", BATCH, "--lr", LR,
                    "--seed", self.seed, "--out", self.out]
        return ["retrieve", "--data", self.data, "--checkpoint", self.coarse,
                "--fine-checkpoint", self.fine, "--tau", w.tau,
                "--out", self.out]

    def checker(self):
        import checks
        w = self.w
        if w.command == "train":
            return checks.TrainCheck(self.data, VARIANT, self.seed)
        return checks.RetrieveCheck(self.data, self.coarse, self.fine,
                                    w.tau, self.seed)

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out.rglob("*")
                   if p.is_file())


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark run of one workload: set-up, calls, checks."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.inputs = Inputs(w, seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self):
        """Generate the inputs and warm up with one checked call, repeated
        SETUP_REPEATS times. Returns the median set-up time."""
        work = self.inputs.work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        times = []
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.inputs.generate()
            generate = perf_counter() - t0
            if k == 0:
                self.check = self.inputs.checker()
            times.append(generate + self.call())
        return statistics.median(times)

    def call(self):
        """One timed call followed by its output check."""
        shutil.rmtree(self.inputs.out, ignore_errors=True)
        argv = self.inputs.argv()
        gc.collect()
        t0 = perf_counter()
        rc = invoke(argv)
        wall = perf_counter() - t0
        self.attempted += 1
        found = self.check(rc, self.inputs.out) if rc == 0 else [
            f"{self.w.command} exited with {rc}"]
        self.failed += bool(found)
        self.problems += [f"call {self.attempted}: {p}" for p in found]
        return wall

    def loop(self, seconds):
        """Closed loop of calls until their summed wall time reaches
        `seconds` (at least one call)."""
        walls = []
        while not walls or sum(walls) < seconds:
            walls.append(self.call())
        return walls

    def probe(self):
        model = getattr(self.check, "model", None)
        if model is None:
            return ["probe: no verified model to probe"]
        import checks
        return checks.probe_problems(model, self.check.dataset,
                                     self.inputs.seed)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            work: Path, import_s: float = 0.0):
    """Run one workload; returns (result dict, summary lines)."""
    run = Run(w, seed, work)
    setup_s = import_s + run.setup()
    lines = [f"setup_s: {setup_s:.4f} (import {import_s:.4f} s, then median "
             f"of {SETUP_REPEATS} input generations with a warm-up call)"]
    if not trace:
        walls = run.loop(seconds)
        rss = peak_rss_mb()
        rates = [w.shapes_per_call / t for t in walls]
        metrics = {
            "setup_s": (setup_s, "s"),
            "shapes_per_s": (max(rates), "shapes/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        q1, med, q3 = quartiles(rates)
        lines.append(f"shapes_per_s: best {max(rates):.4f} median {med:.4f} "
                     f"q1 {q1:.4f} q3 {q3:.4f} n {len(rates)}")
        lines.append("call walls (s): " + " ".join(f"{t:.4f}" for t in walls))
    else:
        metrics, more = traced(run, seconds)
        lines += more
    problems = run.problems + run.probe()
    failed = run.failed
    lines.append(f"failed_share: {failed / run.attempted:.4f} "
                 f"({failed} of {run.attempted} calls)")
    lines += [f"problem: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, lines


def traced(run: Run, seconds: float):
    """Untraced calls for half the time, then traced calls for the rest.

    Per-layer metrics are those of the traced call with the median wall,
    so they add up as they do within one call; the tracing overhead of a
    call is its wall over the best untraced wall. Each traced
    call's output must be byte-identical to the untraced output, and its
    layers' self times plus unattributed time must add up to its wall.
    """
    import tracer as tr
    untraced = min(run.loop(seconds / 2))
    untraced_key = getattr(run.check, "verified", None)
    per_call, lines, spent = [], [], 0.0
    spans_path = run.inputs.work / "spans.tsv"
    spans_path.unlink(missing_ok=True)
    while not per_call or spent < seconds / 2:
        t = tr.Tracer()
        t.install()
        try:
            wall = run.call()
        finally:
            t.uninstall()
        spent += wall
        kept = (run.check.kept_ratio(run.inputs.out)
                if run.w.command == "retrieve" else 0.0)
        m = t.metrics(wall, untraced, run.w.shapes, run.inputs.bytes_written(),
                      kept)
        t.write_spans(spans_path, len(per_call))
        if run.check.verified != untraced_key:
            run.failed += 1
            run.problems.append("traced output differs from untraced output")
        parts = [m[f"{layer}.self_s"] for layer in tr.LAYERS]
        parts.append(m["trace.unattributed_s"])
        if min(parts) < -1e-6 or abs(sum(parts) - wall) > 1e-6:
            run.problems.append("layer self times and unattributed time do "
                                "not add up to the traced wall")
        per_call.append(m)
    middle = sorted(per_call, key=lambda m: m["trace.wall_s"])[
        (len(per_call) - 1) // 2]
    metrics = {name: (middle[name], unit) for name, unit, _ in tr.PER_LAYER}
    lines.append(f"traced calls {len(per_call)}, best untraced wall "
                 f"{untraced:.4f} s, tracing overhead "
                 f"{metrics['trace.overhead'][0]:.3f}x, spans in {spans_path}")
    return metrics, lines


def environment(blas_threads):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # older numpy has no dict mode
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
