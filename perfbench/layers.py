"""Outside-in tracing of padlab's layers and the per-layer metrics it yields.

`install` wraps padlab's public functions at run time: every `nn` op, in
`padlab.nn` and in every padlab module that imported it by name, plus the
entry points of `autodiff`, `models`, `training`, `data`, `cost`, `stats`,
`checkpoint` and `gradcheck_suite`.  `Tape.record` is wrapped so that each
backward closure is timed under the op that recorded it.  Nothing under
`src/padlab` is edited.

All per-layer values are totals over one repetition of a workload (spans
under one ``bench.rep`` span), except the step percentiles, which are per
training step, and the data-generation figures, which cover set-up.
"""

from __future__ import annotations

import statistics
import sys

from .spans import END, N, NAME, PARENT, START, nearest, self_times

# nn op function -> reported op kind
OP_KIND = {
    "conv2d": "conv2d", "pad2d": "pad2d", "batchnorm2d": "batchnorm2d",
    "maxpool2d": "maxpool2d", "relu": "relu", "linear": "linear",
    "softmax_cross_entropy": "loss",
    "attach_pad_channel": "other", "add": "other", "flatten": "other",
    "dropout": "other", "global_avgpool": "other",
    "adaptive_avgpool2d": "other", "mul": "other", "sum_all": "other",
    "mean_all": "other", "softmax": "other",
}
OP_KINDS = ("conv2d", "pad2d", "batchnorm2d", "maxpool2d", "relu", "linear",
            "loss", "other")
BWD = "bwd:"


def _batch(args, kwargs):
    return int(args[1].shape[0])


def _forward_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("ctx_or_mode", "eval")
    return "models.forward." + getattr(mode, "mode", mode)


def _targets():
    """(home object, attribute, span name, count) for every wrapped callable."""
    from padlab import (autodiff, checkpoint, cost, data, gradcheck_suite,
                        models, nn, stats, training)
    targets = [(nn, op, "nn." + op, None) for op in OP_KIND]
    targets += [
        (autodiff, "backward", "autodiff.backward", lambda a, k: len(a[1])),
        (autodiff, "grad_check", "autodiff.grad_check",
         lambda a, k: 1 + 2 * a[1].size),
        (models, "build_model", "models.build_model", None),
        (models.Model, "forward", _forward_name, _batch),
        (models.Model, "zero_grads", "models.zero_grads", None),
        (training, "train_run", "training.train_run", None),
        (training, "sgd_step", "training.sgd_step", None),
        (training, "evaluate", "training.evaluate", None),
        (data, "gen_border_task", "data.gen_border_task", lambda a, k: a[0]),
        (cost, "cost_table", "cost.cost_table", None),
        (stats, "summarize", "stats.summarize", None),
        (checkpoint, "write_tensors", "checkpoint.write_tensors", None),
        (gradcheck_suite, "run_suite", "gradcheck_suite.run_suite", None),
    ]
    return targets


def install(tracer) -> list[str]:
    """Wrap padlab's layers; returns the targets that could not be found.

    A module-level function is replaced in its home module and in every
    loaded padlab module that holds the same object under any name, so calls
    through `from .nn import conv2d` are traced too.
    """
    from padlab import autodiff
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "padlab" or name.startswith("padlab."))]
    missing = []
    for home, attr, name, count in _targets():
        original = getattr(home, attr, None)
        if original is None:
            missing.append(f"{getattr(home, '__name__', home)}.{attr}")
            continue
        wrapper = tracer.wrap(original, name, count)
        if isinstance(home, type):
            tracer.patch(home, attr, wrapper)
            continue
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                tracer.patch(module, key, wrapper)
    record = getattr(autodiff.Tape, "record", None)
    if record is None:
        missing.append("padlab.autodiff.Tape.record")
    else:
        tracer.patch(autodiff.Tape, "record", _timed_record(tracer, record))
    return missing


def _timed_record(tracer, record):
    spans = tracer.spans

    def timed_record(tape, inputs, output, backward_fn):
        owner = tracer.current()
        label = BWD + (spans[owner][NAME] if owner >= 0 else "none")

        def timed_backward(g):
            idx = tracer.open(label)
            try:
                return backward_fn(g)
            finally:
                tracer.close(idx)

        return record(tape, inputs, output, timed_backward)

    return timed_record


# ---------------------------------------------------------------------------
# model structure

def named_modules(module, prefix=""):
    """(qualified name, module) in forward order, the root included."""
    yield prefix.rstrip("."), module
    for name, child in module._children.items():
        yield from named_modules(child, f"{prefix}{name}.")


def conv_macs(model) -> tuple[int, int]:
    """(forward, backward) convolution MACs for one image, from padlab.cost.

    Forward counts each conv row of `Model.cost_rows` once.  Backward counts
    it twice (weight and input gradients), except for the first conv, whose
    input is the non-differentiable image batch and gets no input gradient.
    """
    from padlab import models
    rows = {name: macs for name, _, macs in model.cost_rows()}
    convs = [name for name, m in named_modules(model) if isinstance(m, models.Conv2d)]
    fwd = sum(rows[name] for name in convs)
    bwd = 2 * fwd - (rows[convs[0]] if convs else 0)
    return fwd, bwd


def ops_per_forward(model) -> dict[str, int]:
    """Expected nn op calls in one `Model.forward`, from the module tree."""
    from padlab import models
    kinds = {models.Conv2d: "conv2d", models.BatchNorm2d: "batchnorm2d",
             models.ReLU: "relu", models.MaxPool2d: "maxpool2d",
             models.Linear: "linear"}
    counts = dict.fromkeys(("conv2d", "pad2d", "batchnorm2d", "relu",
                            "maxpool2d", "linear"), 0)
    for _, module in named_modules(model):
        kind = kinds.get(type(module))
        if kind:
            counts[kind] += 1
        if kind == "conv2d" and module.spec.pad > 0:
            counts["pad2d"] += 1
    return counts


# ---------------------------------------------------------------------------
# per-layer metrics

def _ms(ns) -> float:
    return ns / 1e6


def rep_totals(spans) -> list[dict]:
    """Per ``bench.rep`` span: name -> [calls, duration ns, self ns, n sum]."""
    selfs = self_times(spans)
    rep_of = nearest(spans, lambda name: name == "bench.rep")
    reps = {i: {} for i, s in enumerate(spans) if s[NAME] == "bench.rep"}
    for i, span in enumerate(spans):
        rep = rep_of[i]
        if rep < 0 or rep == i:
            continue
        acc = reps[rep].setdefault(span[NAME], [0, 0, 0, 0])
        acc[0] += 1
        acc[1] += span[END] - span[START]
        acc[2] += selfs[i]
        acc[3] += span[N] or 0
    return list(reps.values())


def training_steps(spans) -> list[tuple[int, int]]:
    """(wall ns, unattributed ns) per training step.

    A step runs from a train-mode `Model.forward` to the end of the next
    `Model.zero_grads`, both direct children of `train_run`; unattributed is
    the part of it that no child span of `train_run` covers.
    """
    steps = []
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "training.train_run":
            kids.setdefault(span[PARENT], []).append(i)
    for children in kids.values():
        start = covered = None
        for i in children:
            name, s, e = spans[i][NAME], spans[i][START], spans[i][END]
            if name == "models.forward.train":
                start, covered = s, 0
            if start is None:
                continue
            covered += e - s
            if name == "models.zero_grads":
                steps.append((e - start, e - start - covered))
                start = None
    return steps


def layer_metrics(spans, macs=None) -> dict[str, float]:
    """Per-layer metrics: medians over repetitions of per-repetition totals.

    `macs` is `conv_macs` of the trained model (training workloads only).
    """
    reps = rep_totals(spans)
    per_rep = [_rep_metrics(t, macs) for t in reps]
    out = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}

    rep_of = nearest(spans, lambda name: name == "bench.rep")
    steps = training_steps(spans)
    walls = sorted(_ms(w) for w, _ in steps)
    out["training.step.count"] = len(steps) // len(reps)
    out["training.step.p50_ms"] = statistics.median(walls) if walls else 0.0
    out["training.step.p90_ms"] = (statistics.quantiles(walls, n=10)[8]
                                   if len(walls) >= 2 else 0.0)
    out["trace.unattributed_ms"] = _ms(sum(u for _, u in steps)) / len(reps)

    gen = [s for s, r in zip(spans, rep_of)
           if s[NAME] == "data.gen_border_task" and r < 0]
    gen_s = sum(s[END] - s[START] for s in gen) / 1e9
    out["data.gen_border_task.ms"] = gen_s * 1e3
    out["data.gen_border_task.img_per_s"] = (
        sum(s[N] for s in gen) / gen_s if gen_s else 0.0)
    return out


def _rep_metrics(t: dict, macs) -> dict[str, float]:
    def get(name, field):
        return t.get(name, [0, 0, 0, 0])[field]

    m = {}
    for kind in OP_KINDS:
        ops = [op for op, k in OP_KIND.items() if k == kind]
        m[f"nn.{kind}.fwd_ms"] = _ms(sum(get("nn." + op, 2) for op in ops))
        m[f"nn.{kind}.bwd_ms"] = _ms(sum(get(BWD + "nn." + op, 2) for op in ops))
        m[f"nn.{kind}.calls"] = sum(get("nn." + op, 0) for op in ops)
    fwd_images = get("models.forward.train", 3) + get("models.forward.eval", 3)
    train_images = get("models.forward.train", 3)
    fwd_s, bwd_s = m["nn.conv2d.fwd_ms"] / 1e3, m["nn.conv2d.bwd_ms"] / 1e3
    if macs and fwd_s and bwd_s:
        m["nn.conv2d.fwd_gmacs_per_s"] = macs[0] * fwd_images / fwd_s / 1e9
        m["nn.conv2d.bwd_gmacs_per_s"] = macs[1] * train_images / bwd_s / 1e9
    else:
        m["nn.conv2d.fwd_gmacs_per_s"] = m["nn.conv2d.bwd_gmacs_per_s"] = 0.0
    m["autodiff.backward.ms"] = _ms(get("autodiff.backward", 1))
    m["autodiff.backward.bookkeeping_ms"] = _ms(get("autodiff.backward", 2))
    m["autodiff.tape_entries"] = get("autodiff.backward", 3)
    forwards = get("autodiff.grad_check", 3)
    gc_s = get("autodiff.grad_check", 1) / 1e9
    m["autodiff.grad_check.forwards"] = forwards
    m["autodiff.grad_check.forwards_per_s"] = forwards / gc_s if gc_s else 0.0
    m["models.forward.train_ms"] = _ms(get("models.forward.train", 1))
    m["models.forward.eval_ms"] = _ms(get("models.forward.eval", 1))
    m["models.zero_grads.ms"] = _ms(get("models.zero_grads", 1))
    m["models.build_model.ms"] = _ms(get("models.build_model", 1))
    m["training.sgd_step.ms"] = _ms(get("training.sgd_step", 1))
    m["training.evaluate.ms"] = _ms(get("training.evaluate", 1))
    m["cost.cost_table.ms"] = _ms(get("cost.cost_table", 1))
    m["checkpoint.write_tensors.ms"] = _ms(get("checkpoint.write_tensors", 1))
    m["stats.summarize.ms"] = _ms(get("stats.summarize", 1))
    return m


# ---------------------------------------------------------------------------
# coverage self-check

def coverage_checks(spans, missing, expected, model=None):
    """[(description, passed)] proving the wrappers saw what the workload ran.

    `expected` maps a span name to the work count (sum of span counts) it
    must show in every traced repetition, or to None for "called at least
    once".  A wrapper that a refactor bypasses leaves its spans missing,
    which fails here instead of reporting a silent 0 ms.
    """
    checks = [(f"every wrap target exists (missing: {missing})", not missing)]
    reps = rep_totals(spans)
    for name, want in expected.items():
        got = [t.get(name, [0, 0, 0, 0]) for t in reps]
        if want is None:
            checks.append((f"{name} called in every repetition {[g[0] for g in got]}",
                           all(g[0] > 0 for g in got)))
        else:
            checks.append((f"{name} counts {[g[3] for g in got]} == {want}",
                           all(g[3] == want for g in got)))
    owners = {s[NAME][len(BWD):] for s in spans if s[NAME].startswith(BWD)}
    stray = sorted(o for o in owners if not o.startswith("nn."))
    checks.append((f"every backward closure belongs to an nn op (stray: {stray})",
                   not stray))
    if model is not None:
        checks += _forward_checks(spans, model)
    return checks


def _forward_checks(spans, model):
    expected = ops_per_forward(model)
    fwd_of = nearest(spans, lambda name: name.startswith("models.forward."))
    seen: dict[int, dict[str, int]] = {}
    for i, span in enumerate(spans):
        f = fwd_of[i]
        op = span[NAME][3:] if span[NAME].startswith("nn.") else None
        if f >= 0 and op in expected:
            counts = seen.setdefault(f, dict.fromkeys(expected, 0))
            counts[op] += 1
    forwards = [i for i, s in enumerate(spans)
                if s[NAME].startswith("models.forward.")]
    bad = [i for i in forwards
           if seen.get(i, dict.fromkeys(expected, 0)) != expected]
    checks = [(f"each of {len(forwards)} forwards runs the ops {expected} "
               f"({len(bad)} differ)", bool(forwards) and not bad)]
    entries = {s[N] for s in spans if s[NAME] == "autodiff.backward"
               and spans[s[PARENT]][NAME] == "training.train_run"}
    checks.append((f"tape entries per training step constant {sorted(entries)}",
                   len(entries) == 1))
    return checks
