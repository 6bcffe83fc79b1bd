"""Span recorder and per-layer tracing for the benchmark.

A span is (name, start, end, parent). Spans are kept in memory and written
out once the run ends. A span's self time is its duration minus the part of
it that its child spans cover. Counters (calls, matrices, windows, rows,
bytes, flops) are taken at the same boundaries as the spans.

The tracer wraps, from outside, every public function of the gyrodenoise
modules, plus the backward closure of every tensor those functions return,
so backward time is charged to the op that built the node. Nothing under
src/ is changed; uninstall() restores the original functions.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from collections import defaultdict
from time import perf_counter

from gyrodenoise import (autodiff, cli, data, evaluator, imu, loss, network,
                         so3, trainer)

MODULES = (autodiff, network, loss, trainer, so3, data, evaluator, cli, imu)
N_CONV = 5
REPORT_FILES = ("aoe.csv", "roe.csv", "summary.json", "roe_boxplot.svg")


class Recorder:
    """In-memory spans plus counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self._stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i):
        self.ends[i] = perf_counter()
        self._stack.pop()

    def count(self, key, value=1):
        self.counts[key] += value

    def totals(self):
        """(inclusive seconds, self seconds, calls), each keyed by span name."""
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            incl[name] += dur
            own[name] += dur
            calls[name] += 1
            if self.parents[i] >= 0:
                own[self.names[self.parents[i]]] -= dur
        return incl, own, calls

    def write(self, path):
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps([name, self.starts[i], self.ends[i],
                                    self.parents[i]]) + "\n")


def _shape(x):
    return x.shape if isinstance(x, autodiff.Tensor) else getattr(x, "shape", ())


class Tracer:
    """Installs span wrappers around the library's functions."""

    def __init__(self, recorder):
        self.rec = recorder
        self._saved = []
        self._conv_layer = {}  # id(weight tensor) -> layer index
        self._conv_bwd = (0, 0)  # (flops, bytes) of the last conv's backward

    # -- install / uninstall -------------------------------------------------

    def install(self):
        namers, afters = self._namers(), self._afters()
        targets = [(mod, name, f"{mod.__name__.rsplit('.', 1)[1]}.{name}")
                   for mod in MODULES for name, fn in vars(mod).items()
                   if not name.startswith("_") and inspect.isfunction(fn)
                   and fn.__module__ == mod.__name__]
        # validation has no public boundary of its own inside fit
        targets.append((trainer, "_eval_loss", "trainer.fit.val"))
        for mod, name, span in targets:
            wrapped = self._wrap(span, getattr(mod, name), namers.get(span),
                                 afters.get(span))
            self._patch(mod, name, wrapped)
        self._patch(autodiff.Tensor, "backward",
                    self._wrap_graph_walk(autodiff.Tensor.backward))

    def uninstall(self):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def _patch(self, owner, name, fn):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, fn)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, span, fn, namer, after):
        rec = self.rec
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = None
            name = span
            if namer or after:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if namer:
                    name = namer(bound.arguments)
            i = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if after:
                after(bound.arguments, out, name)
            if isinstance(out, autodiff.Tensor):
                self._wrap_backward(out, name)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, tensor, name):
        fn = tensor._backward_fn
        if fn is None or getattr(fn, "bench_span", None):
            return  # a leaf, or a node already charged to the op that built it
        rec = self.rec
        span = name + ".bwd"
        flops, nbytes = self._conv_bwd if name.startswith(
            "autodiff.conv1d_dilated.") else (0, 0)

        def backward_fn(g):
            i = rec.open(span)
            try:
                fn(g)
            finally:
                rec.close(i)
            rec.count("autodiff.backward.nodes")
            if flops:
                rec.count(name + ".flop", flops)
                rec.count("autodiff.conv1d_dilated.bytes", nbytes)

        backward_fn.bench_span = span
        tensor._backward_fn = backward_fn

    def _wrap_graph_walk(self, method):
        rec = self.rec

        def backward(tensor):
            i = rec.open("autodiff.backward")
            try:
                return method(tensor)
            finally:
                rec.close(i)

        return backward

    # -- per-function names and counters ----------------------------------------

    def _namers(self):
        def conv(a):
            layer = self._conv_layer.get(id(a["w"]), "x")
            return f"autodiff.conv1d_dilated.L{layer}"

        def forward(a):
            params = a["params"]
            self._conv_layer = {id(w): i for i, w in enumerate(params.conv_w)}
            return "network.forward." + ("train" if a["training"] else "eval")

        return {
            "autodiff.conv1d_dilated": conv,
            "network.forward": forward,
            "loss.tree_products": lambda a: f"loss.tree_products.j{a['j']}",
            "evaluator.estimate_attitudes":
                lambda a: f"evaluator.estimate_attitudes.{a['method']}",
        }

    def _afters(self):
        rec = self.rec

        def conv(a, out, name):
            b, c_in, t = _shape(a["x"])
            c_out, _, k = _shape(a["w"])
            t_out = out.shape[2]
            macs = b * c_out * c_in * k * t_out
            x_n, w_n, y_n = b * c_in * t, c_out * c_in * k, b * c_out * t_out
            rec.count(name + ".flop", 2 * macs)
            rec.count("autodiff.conv1d_dilated.bytes", 8 * (x_n + w_n + y_n))
            # backward: gW and gX, each as many multiply-adds as the forward;
            # reads g, x, w and writes gx, gw
            self._conv_bwd = (4 * macs, 8 * (y_n + 2 * x_n + 2 * w_n))

        def make_batch(a, batch, name):
            for valid in batch.valid.values():
                rec.count("loss.windows_supervised", int(valid.sum()))
                rec.count("loss.windows_masked", int(valid.size - valid.sum()))

        def report_bytes(a, out, name):
            for f in REPORT_FILES:
                path = os.path.join(a["outdir"], f)
                if os.path.exists(path):
                    rec.count("evaluator.write_reports.bytes",
                              os.path.getsize(path))

        return {
            "autodiff.conv1d_dilated": conv,
            "loss.make_batch": make_batch,
            "so3.log_so3": lambda a, out, name: rec.count(
                "so3.log_so3.matrices", math.prod(_shape(a["r"])[:-2])),
            "so3.integrate_increments": lambda a, out, name: rec.count(
                "so3.integrate_increments.samples", len(a["omegas"])),
            "data.load_sequence": lambda a, out, name: rec.count(
                "data.load_sequence.rows", len(out[0]) + len(out[1])),
            "evaluator.roe": lambda a, out, name: rec.count(
                "evaluator.roe.windows", sum(len(v) for v in out.values())),
            "evaluator.write_reports": report_bytes,
            "network.save_checkpoint": lambda a, out, name: rec.count(
                "network.checkpoint_bytes", os.path.getsize(a["path"])),
        }


# -- per-layer metrics --------------------------------------------------------------

AUTODIFF_OPS = ("batchnorm1d", "gelu", "dropout", "channel_affine", "take",
                "exp_so3", "log_so3", "huber", "matmul")

# Times are self times summed over the traced phase, except these, which are
# the whole call including the library functions it reaches (their parts are
# reported under their own names as self times).
INCLUSIVE = {
    "network.forward.train_s": "network.forward.train",
    "network.forward.eval_s": "network.forward.eval",
    "trainer.fit.val_s": "trainer.fit.val",
    "loss.tree_products.j16_s": "loss.tree_products.j16",
    "loss.tree_products.j32_s": "loss.tree_products.j32",
    "loss.increment_loss.s": "loss.increment_loss",
    "imu.generate_scene.s": "imu.generate_scene",
}

SELF = {
    "autodiff.backward.self_s": "autodiff.backward",
    "network.integrate_corrected.s": "network.integrate_corrected",
    "network.save_checkpoint.s": "network.save_checkpoint",
    "network.load_checkpoint.s": "network.load_checkpoint",
    "loss.make_batch.s": "loss.make_batch",
    "loss.total_loss.self_s": "loss.total_loss",
    "trainer.adam_step.s": "trainer.adam_step",
    "trainer.fit.self_s": "trainer.fit",
    "trainer.recovered_calibration.s": "trainer.recovered_calibration",
    "so3.exp_so3.s": "so3.exp_so3",
    "so3.log_so3.s": "so3.log_so3",
    "so3.integrate_increments.s": "so3.integrate_increments",
    "data.load_sequence.s": "data.load_sequence",
    "data.align_ground_truth.s": "data.align_ground_truth",
    "evaluator.aoe.s": "evaluator.aoe",
    "evaluator.roe.s": "evaluator.roe",
    "evaluator.write_reports.s": "evaluator.write_reports",
}
for _m in evaluator.METHODS:
    SELF[f"evaluator.estimate_attitudes.{_m}_s"] = \
        f"evaluator.estimate_attitudes.{_m}"
for _op in AUTODIFF_OPS:
    SELF[f"autodiff.{_op}.fwd_s"] = f"autodiff.{_op}"
    SELF[f"autodiff.{_op}.bwd_s"] = f"autodiff.{_op}.bwd"
for _i in range(N_CONV):
    SELF[f"autodiff.conv1d_dilated.L{_i}.fwd_s"] = f"autodiff.conv1d_dilated.L{_i}"
    SELF[f"autodiff.conv1d_dilated.L{_i}.bwd_s"] = \
        f"autodiff.conv1d_dilated.L{_i}.bwd"

COUNTS = {
    "autodiff.conv1d_dilated.mb_moved_computed":
        ("autodiff.conv1d_dilated.bytes", 1e-6, "MB"),
    "network.checkpoint_bytes": ("network.checkpoint_bytes", 1.0, "bytes"),
    "loss.windows_supervised": ("loss.windows_supervised", 1.0, "count"),
    "loss.windows_masked": ("loss.windows_masked", 1.0, "count"),
    "so3.log_so3.matrices": ("so3.log_so3.matrices", 1.0, "count"),
    "so3.integrate_increments.samples":
        ("so3.integrate_increments.samples", 1.0, "count"),
    "data.load_sequence.rows": ("data.load_sequence.rows", 1.0, "count"),
    "evaluator.roe.windows": ("evaluator.roe.windows", 1.0, "count"),
    "evaluator.write_reports.bytes":
        ("evaluator.write_reports.bytes", 1.0, "bytes"),
}


def per_layer_metrics(rec, setup_rec, overhead_ratio):
    """Every per-layer metric as {name: (value, unit)}."""
    incl, own, calls = rec.totals()
    setup_incl = setup_rec.totals()[0]
    out = {}
    for metric, span in SELF.items():
        out[metric] = (own.get(span, 0.0), "s")
    for metric, span in INCLUSIVE.items():
        src = setup_incl if span.startswith("imu.") else incl
        out[metric] = (src.get(span, 0.0), "s")
    for metric, (key, scale, unit) in COUNTS.items():
        out[metric] = (rec.counts.get(key, 0.0) * scale, unit)

    conv_flop = conv_s = 0.0
    for i in range(N_CONV):
        flop = rec.counts.get(f"autodiff.conv1d_dilated.L{i}.flop", 0.0)
        conv_flop += flop
        conv_s += (out[f"autodiff.conv1d_dilated.L{i}.fwd_s"][0]
                   + out[f"autodiff.conv1d_dilated.L{i}.bwd_s"][0])
        out[f"autodiff.conv1d_dilated.L{i}.gflop"] = (flop * 1e-9, "GFLOP")
    out["autodiff.conv1d_dilated.gflop_per_s"] = (
        conv_flop * 1e-9 / conv_s if conv_s else 0.0, "GFLOP/s")

    walks = calls.get("autodiff.backward", 0)
    out["autodiff.backward.nodes"] = (
        rec.counts.get("autodiff.backward.nodes", 0.0) / walks if walks else 0.0,
        "count")
    sup = out["loss.windows_supervised"][0]
    total = sup + out["loss.windows_masked"][0]
    out["loss.valid_ratio"] = (sup / total if total else 0.0, "ratio")
    out["trainer.adam_step.calls"] = (calls.get("trainer.adam_step", 0), "count")
    out["cli.main.self_s"] = (
        sum(v for k, v in own.items() if k.startswith("cli.")), "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
