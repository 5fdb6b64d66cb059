"""Per-word decode-latency benchmark for output-layer designs.

Compares the cost of producing one decoded word for every hypothesis of
a beam, with the same top-k bookkeeping, under two output layers:

* the three-action decoder the model ships: ``EncoderDecoder.step`` on
  the (beam, hidden) batch (decoder GRU, attention over the copy window,
  question-word and nine-way rewrite-tag heads, switch), then
  ``outcome_mass``.  A root word and the tag attached to it count as one
  decoded word, so the tag head's cost is folded into each word step;
* a plain full-vocabulary softmax layer of configurable size.

The ratio errs against the three-action side: its word also pays for the
decoder GRU and attention, which the baseline, an output layer alone,
skips.  Set-up and warmup steps are not timed; the report carries mean
and 95th percentile per-word latency.  The module also embeds fixed
reference figures measured on a full-scale GPU system, for directional
comparison only — absolute timings are hardware-bound, not targets here.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from .codec import RESERVED_TOKENS, SOS_ID, EncodedExample, Vocab
from .model import EncoderDecoder, HyperParams, build_tag_list
from .morphology import ALL_TYPES
from .tensor import softmax

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
DEFAULT_BASELINE_VOCAB = 30000


def _top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """One hypothesis's beam bookkeeping: its ``k`` best outcomes, best first."""
    idx = np.argpartition(probs, -k)[-k:]
    return np.sort(probs[idx])[::-1]


def make_three_action_layer(
    hidden: int = DEFAULT_HIDDEN,
    source_window: int = DEFAULT_SOURCE_WINDOW,
    quest_size: int = DEFAULT_QUEST_SIZE,
    beam: int = DEFAULT_BEAM,
    seed: int = 0,
) -> Callable[[], np.ndarray]:
    """One decoded word via the model's own copy / list-word / rewrite-tag step.

    A seeded :class:`EncoderDecoder` (default shapes but ``hidden``) over
    ``source_window`` distinct roots and a list of ``quest_size`` words,
    reserved tokens included, encodes one source of those roots.  The
    closure runs ``step`` and ``outcome_mass`` on a (``beam``,
    ``hidden``) batch of seeded random states and keeps each row's top
    ``beam`` outcomes.
    """
    roots = [f"root{i}" for i in range(source_window)]
    quest = [f"quest{i}" for i in range(quest_size - len(RESERVED_TOKENS))]
    vocab = Vocab(list(RESERVED_TOKENS) + roots, list(RESERVED_TOKENS) + quest)
    model = EncoderDecoder(HyperParams(hidden_size=hidden), vocab,
                           build_tag_list([]), build_tag_list([]), init_seed=seed)
    prep = model.prepare(EncodedExample(
        source_roots=roots, source_features=[("", "", "O")] * source_window,
        answer_span=(0, 0), target_actions=[], reference_question=[]))
    enc = model.encode(prep)
    columns = model.outcome_columns(prep.roots)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((beam, hidden)).astype(model.dtype)
    contexts = np.zeros_like(states)
    specs = [("word", SOS_ID)] * beam

    def step() -> np.ndarray:
        state = model.step(enc, states, contexts, specs)
        mass = model.outcome_mass(state, columns)
        return np.stack([_top_k(row, beam) for row in mass])

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
        return np.stack([_top_k(softmax(W @ s + b), beam) for s in states])

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
                        "tags": len(ALL_TYPES)},
            **report_wt,
        },
        "softmax_baseline": {
            "support": {"vocab": vocab_size},
            **report_base,
        },
        "speedup_ratio": ratio,
        "full_scale_reference": dict(FULL_SCALE_REFERENCE),
    }
