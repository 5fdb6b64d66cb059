"""Metrics from a run's timed items and, for a traced run, its spans.

A metric is ``{"value", "unit", "samples"}``; ``"computed": True`` marks a
figure derived from tensor shapes or returned sizes rather than timed.
A per-layer metric whose layer the workload never calls reads 0 with 0
samples.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import self_times

_NS_PER_MS = 1e6


def _metric(value, unit, samples, computed=False) -> dict:
    out = {"value": float(value), "unit": unit, "samples": int(samples)}
    if computed:
        out["computed"] = True
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# End to end.
# ---------------------------------------------------------------------------


def end_to_end(workload, items, peak_rss_mb: float, paced: bool = True) -> dict:
    """The user-facing figures of one run, from paced item times (see
    ``pace.py``) or, with ``paced=False``, from wall times.

    ``op_ms_p50`` is built from the medians of an op's parts: for each
    part kind, parts per op times the median part time.  An op of one part
    (a question, a training step) gives its plain median; a toy-h64 pass
    gives the pass time at median speed of its hundreds of parts, which
    holds steady where the few whole passes of a run do not.
    """
    def ms(item):
        return item.paced_ms if paced else item.ms

    setups = [ms(it) / 1e3 for it in items if it.kind == "setup"]
    ops = [it for it in items if it.kind == workload.op]
    op_ms = 0.0
    for kind in workload.parts:
        part_ms = [ms(it) for it in items if it.kind == kind]
        if part_ms and ops:
            op_ms += len(part_ms) / len(ops) * statistics.median(part_ms)
    actions_per_op = _mean([it.actions for it in ops])
    n_parts = sum(1 for it in items if it.kind in workload.parts)
    return {
        "setup_s": _metric(_median(setups), "s", len(setups)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "op_ms_p50": _metric(op_ms, "ms", n_parts),
        "examples_per_s": _metric(
            workload.examples_per_op * 1e3 / op_ms if op_ms else 0.0, "1/s", n_parts),
        "action_ms_p50": _metric(op_ms / actions_per_op if actions_per_op else 0.0,
                                 "ms", n_parts),
    }


def item_summary(items) -> dict:
    """Per item kind (question, step, encode, ...): count, median ms and,
    from 100 items on, the 90th percentile, so the parts of an op (a toy
    pass's questions and training steps) keep their own latencies."""
    by_kind = defaultdict(list)
    for it in items:
        by_kind[it.kind].append(it.ms)
    out = {}
    for kind, ms in by_kind.items():
        out[kind] = {"n": len(ms), "ms_p50": statistics.median(ms)}
        if len(ms) >= 100:
            out[kind]["ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


# ---------------------------------------------------------------------------
# Per layer.
# ---------------------------------------------------------------------------


def per_layer(items, tracer, outputs: dict) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    dur = defaultdict(list)
    own = defaultdict(list)
    for i, (name, start, end, _parent, _item) in enumerate(spans):
        dur[name].append(end - start)
        own[name].append(selfs[i])

    def ms(name, self_time=False, scale=_NS_PER_MS, unit="ms"):
        values = (own if self_time else dur)[name]
        return _metric(_median(values) / scale, unit, len(values))

    def children_per_parent(child, parent):
        n_parent = len(dur[parent])
        n_child = sum(1 for name, _s, _e, p, _i in spans
                      if name == child and p >= 0 and spans[p][0] == parent)
        return _metric(n_child / n_parent if n_parent else 0.0, "count", n_parent)

    questions = [it for it in items if it.kind == "question"]
    outcomes = tracer.counts.get("outcomes", [])
    steps_self = _item_self_ns(items, spans, kind="step")
    overhead, overhead_n = _overhead_pct(items)
    accounted, accounted_n = _accounted_share(items, spans)
    return {
        "generate.beam_search_self_ms": ms("generate.beam_search", self_time=True),
        "generate.outcomes_scored_per_kept": _metric(
            _mean(outcomes), "count", len(outcomes), computed=True),
        "generate.hyp_steps_per_question": children_per_parent(
            "model.step", "generate.beam_search"),
        "generate.finished_share": _metric(
            _mean([it.finished for it in questions]), "share", len(questions)),
        "generate.actions_per_question": _metric(
            _mean([it.actions for it in questions]), "count", len(questions)),
        "model.step_ms": ms("model.step"),
        "model.outcome_distribution_ms": ms("model.outcome_distribution"),
        "model.step_weight_mb": _metric(outputs["step_weight_mb"], "MB", 1,
                                        computed=True),
        "model.encode_ms": ms("model.encode"),
        "model.prepare_ms": ms("model.prepare"),
        "model.loss_and_grads_self_ms": ms("model.loss_and_grads", self_time=True),
        "model.zero_grads_ms": ms("model.zero_grads"),
        "tensor.adam_step_ms": ms("tensor.adam_step"),
        "train.self_ms": _metric(_median(steps_self) / _NS_PER_MS, "ms",
                                 len(steps_self)),
        "train.grad_mb_per_step": _metric(outputs["grad_mb"], "MB", 1, computed=True),
        "tensor.checkpoint_save_ms": ms("tensor.save_checkpoint"),
        "tensor.checkpoint_load_ms": ms("tensor.load_checkpoint"),
        "codec.encode_example_self_ms": ms("codec.encode_example", self_time=True),
        "codec.build_vocabs_ms": ms("codec.build_vocabs"),
        "morphology.analyze_calls": children_per_parent(
            "morphology.analyze", "codec.encode_example"),
        "morphology.analyze_us_p50": ms("morphology.analyze", scale=1e3, unit="us"),
        "codec.realize_ms": ms("codec.realize"),
        "metrics.bleu_ms": ms("metrics.bleu"),
        "metrics.rouge_l_ms": ms("metrics.rouge_l"),
        "trace.overhead_pct": _metric(overhead, "%", overhead_n),
        "trace.accounted_share": _metric(accounted, "share", accounted_n),
        "trace.spans": _metric(len(spans), "count", len(spans)),
    }


def _label(item) -> str:
    return f"{item.kind}{item.index}"


def _top_level_ns(spans) -> dict:
    """Item label -> time covered by spans called directly by the benchmark."""
    covered = defaultdict(int)
    for _name, start, end, parent, label in spans:
        if parent < 0 and label is not None:
            covered[label] += end - start
    return covered


def _item_self_ns(items, spans, kind: str) -> list:
    """For traced items of ``kind``: wall time outside every span."""
    covered = _top_level_ns(spans)
    return [it.end - it.start - covered[_label(it)]
            for it in items if it.traced and it.kind == kind]


def _overhead_pct(items) -> tuple[float, int]:
    """Tracing overhead: per item kind, traced median against untraced
    median, weighted by the traced items' time; set-up is left out."""
    by_kind = defaultdict(lambda: ([], []))
    for it in items:
        if it.kind not in ("setup", "pass"):
            by_kind[it.kind][it.traced].append(it.ms)
    extra = base = 0.0
    n = 0
    for untraced, traced in by_kind.values():
        if untraced and traced:
            u = statistics.median(untraced)
            extra += len(traced) * (statistics.median(traced) - u)
            base += len(traced) * u
            n += len(traced)
    return (100.0 * extra / base if base else 0.0), n


def _accounted_share(items, spans) -> tuple[float, int]:
    """Share of traced items' wall time that spans cover."""
    covered = _top_level_ns(spans)
    traced = [it for it in items if it.traced and it.kind not in ("setup", "pass")]
    wall = sum(it.end - it.start for it in traced)
    inside = sum(covered[_label(it)] for it in traced)
    return (inside / wall if wall else 0.0), len(traced)


def self_time_share(workload, items, tracer) -> dict:
    """Per span name: self time as a share of the wall time of the traced
    operations (questions, steps; every part of the loop for toy-h64);
    ``(benchmark)`` is the time outside every span."""
    kinds = None if workload.op == "pass" else {workload.op}
    traced = {_label(it): it for it in items
              if it.traced and it.kind not in ("setup", "pass")
              and (kinds is None or it.kind in kinds)}
    wall = sum(it.end - it.start for it in traced.values())
    if not wall:
        return {}
    share = defaultdict(float)
    selfs = self_times(tracer.spans)
    for i, (name, _s, _e, _p, label) in enumerate(tracer.spans):
        if label in traced:
            share[name] += selfs[i] / wall
    covered = _top_level_ns(tracer.spans)
    share["(benchmark)"] = sum(it.end - it.start - covered[label]
                               for label, it in traced.items()) / wall
    return dict(sorted(share.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------


def _blas() -> tuple[str, int | None]:
    """BLAS name from numpy's build record and its live thread count."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return name, fn()
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return name, int(env) if env and env.isdigit() else None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` (no subprocess); "unknown"
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path, seed: int) -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas, threads = _blas()
    return {
        "cpus": cpus,
        "blas": blas,
        "blas_threads": min(threads, cpus) if threads else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "seed": seed,
        "processes": 1,
    }
