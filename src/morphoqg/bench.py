"""Per-word decode-latency benchmark for output-layer designs.

Compares the cost of producing one decoded word under identical beam
bookkeeping for two output layers:

* the three-action layer used by the model — copy scores over the source
  window, a question-word head over the small list vocabulary, the
  nine-way rewrite-tag head, the three-way switch, and the mixing /
  top-k bookkeeping across a 12-hypothesis beam.  A root word and the
  tag attached to it count as a single decoded word, so the tag head's
  cost is folded into each word step;
* a plain full-vocabulary softmax layer of configurable size.

Only the output-distribution computation plus beam bookkeeping is timed;
warmup steps are excluded, and the report carries mean and 95th
percentile per-word latency.  The module also embeds fixed reference
figures measured on a full-scale GPU system, for directional comparison
only — absolute timings are hardware-bound and are not targets here.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from .tensor import maxout_affine, softmax

# Reference per-word figures from a full-scale GPU system (directional
# context only; this benchmark makes no attempt to reproduce them).
FULL_SCALE_REFERENCE = {
    "baseline_per_word_s": 0.0081,
    "three_action_per_word_s": 0.0049,
    "savings_pct": 39,
}

DEFAULT_BEAM = 12
DEFAULT_HIDDEN = 512
DEFAULT_SOURCE_WINDOW = 128
DEFAULT_QUEST_SIZE = 1004
DEFAULT_TAG_COUNT = 9
DEFAULT_BASELINE_VOCAB = 30000


def make_three_action_layer(
    hidden: int = DEFAULT_HIDDEN,
    source_window: int = DEFAULT_SOURCE_WINDOW,
    quest_size: int = DEFAULT_QUEST_SIZE,
    tag_count: int = DEFAULT_TAG_COUNT,
    beam: int = DEFAULT_BEAM,
    seed: int = 0,
) -> Callable[[], np.ndarray]:
    """One decoded word via the copy / list-word / rewrite-tag layer.

    The returned closure runs the additive copy scoring over the source
    window, both deep maxout heads, the switch, the three-way mixture,
    and a top-``beam`` selection over the combined outcome space for
    every hypothesis in the beam.
    """
    rng = np.random.default_rng(seed)
    dt = np.float32
    H = rng.standard_normal((source_window, hidden)).astype(dt)
    HA = rng.standard_normal((source_window, hidden)).astype(dt)
    att_B = rng.standard_normal((hidden, hidden)).astype(dt) * dt(0.05)
    att_b = np.zeros(hidden, dtype=dt)
    att_v = rng.standard_normal(hidden).astype(dt) * dt(0.05)
    g1_W = rng.standard_normal((2 * hidden, 2 * hidden)).astype(dt) * dt(0.05)
    g1_b = np.zeros(2 * hidden, dtype=dt)
    g1_Wo = rng.standard_normal((tag_count, hidden)).astype(dt) * dt(0.05)
    g2_W = rng.standard_normal((2 * hidden, 3 * hidden)).astype(dt) * dt(0.05)
    g2_b = np.zeros(2 * hidden, dtype=dt)
    g2_Wo = rng.standard_normal((quest_size, hidden)).astype(dt) * dt(0.05)
    sw_W = rng.standard_normal((3, 2 * hidden)).astype(dt) * dt(0.05)
    v_answer = rng.standard_normal(hidden).astype(dt)
    states = rng.standard_normal((beam, hidden)).astype(dt)

    def step() -> np.ndarray:
        top_scores = np.empty((beam, beam), dtype=dt)
        for b in range(beam):
            s = states[b]
            # Copy scores over the source window (additive attention form).
            q = np.tanh(HA + (att_B @ s + att_b))
            alpha = softmax(q @ att_v)
            c = H.T @ alpha
            # Rewrite-tag head (two-piece maxout + readout).
            m1, _ = maxout_affine(g1_W, g1_b, np.concatenate([s, c]))
            p_trans = softmax(g1_Wo @ m1)
            # Question-word head.
            m2, _ = maxout_affine(g2_W, g2_b, np.concatenate([v_answer, s, c]))
            p_quest = softmax(g2_Wo @ m2)
            # Switch and mixture over the combined outcome space.
            sw = softmax(sw_W @ np.concatenate([c, s]))
            outcomes = np.concatenate([
                sw[1] * alpha, sw[0] * p_quest, sw[2] * p_trans,
            ])
            # Beam bookkeeping: keep this hypothesis's top-k outcomes.
            idx = np.argpartition(outcomes, -beam)[-beam:]
            top_scores[b] = np.sort(outcomes[idx])[::-1]
        return top_scores

    return step


def make_softmax_layer(
    hidden: int = DEFAULT_HIDDEN,
    vocab_size: int = DEFAULT_BASELINE_VOCAB,
    beam: int = DEFAULT_BEAM,
    seed: int = 0,
) -> Callable[[], np.ndarray]:
    """One decoded word via a plain full-vocabulary softmax layer."""
    rng = np.random.default_rng(seed)
    dt = np.float32
    W = rng.standard_normal((vocab_size, hidden)).astype(dt) * dt(0.05)
    b = np.zeros(vocab_size, dtype=dt)
    states = rng.standard_normal((beam, hidden)).astype(dt)

    def step() -> np.ndarray:
        top_scores = np.empty((beam, beam), dtype=dt)
        for bm in range(beam):
            probs = softmax(W @ states[bm] + b)
            idx = np.argpartition(probs, -beam)[-beam:]
            top_scores[bm] = np.sort(probs[idx])[::-1]
        return top_scores

    return step


def time_layer(step: Callable[[], np.ndarray], steps: int = 30,
               warmup: int = 5) -> Dict[str, float]:
    """Time ``steps`` decoded words after ``warmup`` unrecorded calls."""
    for _ in range(warmup):
        step()
    samples: List[float] = []
    for _ in range(steps):
        start = time.perf_counter()
        step()
        samples.append(time.perf_counter() - start)
    arr = np.array(samples)
    return {
        "per_word_mean_s": float(arr.mean()),
        "per_word_p95_s": float(np.percentile(arr, 95)),
        "per_word_median_s": float(np.median(arr)),
        "steps": steps,
        "warmup": warmup,
    }


def median_of_medians(step_factory: Callable[[], Callable[[], np.ndarray]],
                      repetitions: int = 3, steps: int = 20,
                      warmup: int = 3) -> float:
    """Noise-robust latency estimate: median of per-repetition medians."""
    medians = []
    for _ in range(repetitions):
        layer = step_factory()
        medians.append(time_layer(layer, steps=steps,
                                  warmup=warmup)["per_word_median_s"])
    return float(np.median(medians))


def bench_decode(
    hidden: int = DEFAULT_HIDDEN,
    vocab_size: int = DEFAULT_BASELINE_VOCAB,
    source_window: int = DEFAULT_SOURCE_WINDOW,
    quest_size: int = DEFAULT_QUEST_SIZE,
    beam: int = DEFAULT_BEAM,
    steps: int = 30,
    warmup: int = 5,
    seed: int = 0,
) -> Dict:
    """Run both layers and report per-word latency plus their ratio."""
    three_action = make_three_action_layer(
        hidden=hidden, source_window=source_window, quest_size=quest_size,
        beam=beam, seed=seed)
    baseline = make_softmax_layer(hidden=hidden, vocab_size=vocab_size,
                                  beam=beam, seed=seed)
    report_wt = time_layer(three_action, steps=steps, warmup=warmup)
    report_base = time_layer(baseline, steps=steps, warmup=warmup)
    ratio = (report_base["per_word_mean_s"] / report_wt["per_word_mean_s"]
             if report_wt["per_word_mean_s"] > 0 else float("inf"))
    return {
        "hidden": hidden,
        "beam": beam,
        "three_action": {
            "support": {"copy": source_window, "quest": quest_size,
                        "tags": DEFAULT_TAG_COUNT},
            **report_wt,
        },
        "softmax_baseline": {
            "support": {"vocab": vocab_size},
            **report_base,
        },
        "speedup_ratio": ratio,
        "full_scale_reference": dict(FULL_SCALE_REFERENCE),
    }
