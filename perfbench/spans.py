"""Span tracing of the medc layers from outside the library.

``Tracer.install()`` replaces every public function of the traced medc
modules, and a few methods, with a wrapper that records one span per call:
name, start, end and parent span. The wrapper is put wherever a caller
looks the name up: on the defining module and on every medc module that
imported the function by name, so ``medc.training.forward_expert`` and
``medc.model.forward_expert`` both record ``model.forward_expert``.
``uninstall()`` puts the originals back. Spans live in flat arrays in
memory and are written out once, by ``dump()``.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# the package modules that are layers; config, cli and seeding only parse,
# hash manifests and derive RNGs
LAYERS = ("autograd", "model", "losses", "sampling", "training", "evaluation",
          "data", "verify")
# methods the per-layer metrics need, as (layer, class, method)
METHODS = (("autograd", "Tensor", "backward"),
           ("training", "Adam", "step"),
           ("model", "Model", "zero_grad"))


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.phases = []          # (label, first span index, end span index)
        self._stack = [-1]
        self._patches = []        # (owner, attribute, original)
        self._wrappers = {}       # name -> wrapper, reused across installs

    def _wrapper(self, fn, name):
        if name in self._wrappers:
            return self._wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        self._wrappers[name] = traced
        return traced

    def install(self, label):
        """Wrap the layers' functions; spans recorded until uninstall() form phase `label`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}                                      # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"medc.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrapper(obj, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "medc" and not modname.startswith("medc."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"medc.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrapper(fn, f"{layer}.{cls_name}.{meth}"))
        self.phases.append((label, len(self.start), None))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        label, lo, _ = self.phases[-1]
        self.phases[-1] = (label, lo, len(self.start))

    def spans(self, phase):
        """Spans of one phase as a dict of numpy arrays (parents re-based to the phase)."""
        for label, lo, hi in self.phases:
            if label == phase:
                break
        else:
            raise KeyError(phase)
        # slicing copies, so no buffer stays exported and the arrays can still grow
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        start = np.frombuffer(self.start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.float64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {"name": np.frombuffer(self.name_id[lo:hi], dtype=np.int32),
                "parent": parent, "start": start, "end": end, "dur": dur,
                "self": dur - covered}

    def name_ids(self, predicate):
        return np.array([i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int32)

    def dump(self, path, facts):
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end),
                 phases=np.array([f"{label}:{lo}:{hi}" for label, lo, hi in self.phases]),
                 facts=np.array(repr(facts)))


def within(spans, scope_ids):
    """Mask of spans that are, or descend from, a span named in scope_ids."""
    inside = np.isin(spans["name"], scope_ids)
    parent = spans["parent"]
    has_parent = parent >= 0
    while True:
        grown = inside.copy()
        grown[has_parent] |= inside[parent[has_parent]]
        if np.array_equal(grown, inside):
            return inside
        inside = grown


# span names summed per operation, inclusive of their children
INCLUSIVE = {
    "autograd.backward_s": ("autograd.Tensor.backward",),
    "model.trunk_forward_s": ("model.trunk_forward",),
    "model.estimate_mean_s": ("model.estimate_mean",),
    "model.estimate_variance_s": ("model.estimate_variance",),
    "model.classify_s": ("model.classify",),
    "model.forward_inference_s": ("model.forward_inference",),
    "losses.mean_contrastive_s": ("losses.mean_contrastive_loss",),
    "losses.classification_s": ("losses.classification_loss",),
    "losses.variance_region_s": ("losses.variance_region_loss",),
    "sampling.sample_batch_s": ("sampling.sample_batch",),
    "sampling.build_s": ("sampling.original_weights", "sampling.uniform_class_weights",
                         "sampling.inverse_class_weights"),
    "training.adam_step_s": ("training.Adam.step",),
    "training.zero_grad_s": ("model.Model.zero_grad",),
    "evaluation.score_records_s": ("evaluation.score_records",),
    "evaluation.metrics_from_scores_s": ("evaluation.metrics_from_scores",),
    "data.read_feature_file_s": ("data.read_feature_file",),
}
# span names counted per operation
COUNTS = {
    "sampling.sample_batch_calls": "sampling.sample_batch",
    "evaluation.average_precision_calls": "evaluation.average_precision",
}
# span names summed per set-up
SETUP = {
    "data.generate_synthetic_s": "data.generate_synthetic",
    "data.split_records_s": "data.split_records",
    "data.compute_label_stats_s": "data.compute_label_stats",
}
# mean milliseconds per call, set-up and measured operations together
PER_CALL_MS = {
    "model.save_checkpoint_ms": "model.save_checkpoint",
    "model.load_checkpoint_ms": "model.load_checkpoint",
}
NOT_OPS = ("autograd.Tensor.backward", "autograd.gradient_check")

PER_LAYER = (
    [("autograd.op_calls", "count"), ("autograd.forward_self_s", "s"),
     ("autograd.matmul_self_s", "s")]
    + [(name, "s") for name in INCLUSIVE]
    + [(name, "count") for name in COUNTS]
    + [(name, "s") for name in SETUP]
    + [(name, "ms") for name in PER_CALL_MS]
    + [("model.checkpoint_bytes", "B"), ("training.epoch_s", "s"),
       ("training.step_ms.p50", "ms"), ("training.step_ms.p95", "ms"),
       ("training.step_ms.count", "count"), ("verify.objective_evals", "count"),
       ("verify.s_per_objective_eval", "s"), ("trace.overhead_s", "s")])


def layer_metrics(tracer, wl, n_setups, ops, overhead_s):
    """Per-layer metrics from a traced run, as {name: (value, unit)} in PER_LAYER order.

    Times ending in _s are per measured operation unless named otherwise;
    self times subtract the time covered by child spans, so an op that
    calls another op (mean_along calls sum_along) is not counted twice.
    """
    sp, su = tracer.spans("measure"), tracer.spans("setup")
    n_ops = len(ops)

    def ids(*names):
        return tracer.name_ids(lambda n: n in names)

    def pick(s, *names):
        return np.isin(s["name"], ids(*names))

    out = {}
    autograd_ops = np.isin(sp["name"], tracer.name_ids(
        lambda n: n.startswith("autograd.") and n not in NOT_OPS))
    in_scope = within(sp, ids(wl.scope))
    units = int((pick(sp, wl.unit) & in_scope).sum())
    out["autograd.op_calls"] = int((autograd_ops & in_scope).sum()) / units if units else 0.0
    out["autograd.forward_self_s"] = float(sp["self"][autograd_ops].sum()) / n_ops
    out["autograd.matmul_self_s"] = float(sp["self"][pick(sp, "autograd.matmul")].sum()) / n_ops
    for metric, names in INCLUSIVE.items():
        out[metric] = float(sp["dur"][pick(sp, *names)].sum()) / n_ops
    for metric, name in COUNTS.items():
        out[metric] = int(pick(sp, name).sum()) / n_ops
    for metric, name in SETUP.items():
        out[metric] = float(su["dur"][pick(su, name)].sum()) / n_setups
    for metric, name in PER_CALL_MS.items():
        durs = np.concatenate([su["dur"][pick(su, name)], sp["dur"][pick(sp, name)]])
        out[metric] = float(durs.mean()) * 1e3 if durs.size else 0.0
    out["model.checkpoint_bytes"] = ops[-1].info.get("checkpoint_bytes", 0)

    epochs = pick(sp, "training.train_epoch")
    out["training.epoch_s"] = float(sp["dur"][epochs].mean()) if epochs.any() else 0.0
    # a step runs from the end of the previous Adam.step (or the epoch's start) to its own end
    steps = np.flatnonzero(pick(sp, "training.Adam.step"))
    step_ms = np.array([])
    if steps.size:
        parent, end = sp["parent"][steps], sp["end"][steps]
        begin = sp["start"][parent]
        same_epoch = np.r_[False, parent[1:] == parent[:-1]]
        begin[same_epoch] = end[:-1][same_epoch[1:]]
        step_ms = (end - begin) * 1e3
    for q in (50, 95):
        out[f"training.step_ms.p{q}"] = float(np.percentile(step_ms, q)) if step_ms.size else 0.0
    out["training.step_ms.count"] = int(step_ms.size)

    gradcheck = "verify.composed_objective_gradcheck"
    evals = int((pick(sp, "losses.total_loss") & within(sp, ids(gradcheck))).sum())
    gradcheck_s = float(sp["dur"][pick(sp, gradcheck)].sum())
    out["verify.objective_evals"] = evals / n_ops
    out["verify.s_per_objective_eval"] = gradcheck_s / evals if evals else 0.0
    out["trace.overhead_s"] = float(overhead_s)
    return {name: (out[name], unit) for name, unit in PER_LAYER}
