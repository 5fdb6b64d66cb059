"""Decode-latency benchmark: the shipped beam search at two list sizes.

The paper's speed claim is that shrinking the set of words the decoder
predicts cuts decoding time.  ``bench_decode`` builds two seeded
:class:`EncoderDecoder` models with the same hyperparameters, encoder
vocabulary, seed and source, which differ only in the size of their
question-word list: ``quest_size`` words (1,004 by default, the list the
three-action decoder predicts from) against ``vocab_size`` words (30,000,
the full-vocabulary head of an RNN question generator with copy such as
NQG++, Zhou et al. 2017, arXiv:1704.01792).  Each side decodes one source
of ``source_window`` distinct roots with :func:`generate.beam_search`,
encoder included.  The search stops early once no live hypothesis can
beat the best finished one, which would leave the two sides doing unequal
work, so a timed call that ran fewer than ``steps`` beam steps raises
:class:`RuntimeFailure`: every reported figure covers exactly ``steps``
beam steps per question.

Both sides keep the copy route and the nine-way rewrite-tag head, so the
ratio isolates the list size, the paper's mechanism, rather than
reproducing the paper's exact baseline.

Timing: ``warmup`` untimed pairs, then :data:`PAIRS` timed pairs that
alternate which side runs first.  The report gives each side's median
seconds per question and per beam step, and ``speedup_ratio``, the
median of the per-pair ratios, so a stall on a shared machine spoils one
pair rather than the result.  Fixed reference figures measured on a
full-scale GPU system ride along for directional comparison only;
absolute timings are hardware-bound, not targets here.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from . import generate
from .codec import RESERVED_TOKENS, EncodedExample, Vocab
from .errors import RuntimeFailure
from .model import EncoderDecoder, HyperParams, PreparedExample, build_tag_list
from .morphology import ALL_TYPES

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
DEFAULT_STEPS = 16
DEFAULT_WARMUP = 1
PAIRS = 5


def _model_and_source(list_size: int, hidden: int, source_window: int,
                      seed: int) -> tuple[EncoderDecoder, PreparedExample]:
    """A seeded model (default shapes but ``hidden``) whose question list
    holds ``list_size`` words, reserved tokens included, and one prepared
    source of ``source_window`` distinct roots, which are its encoder
    vocabulary."""
    roots = [f"root{i}" for i in range(source_window)]
    quest = [f"quest{i}" for i in range(list_size - len(RESERVED_TOKENS))]
    vocab = Vocab(list(RESERVED_TOKENS) + roots, list(RESERVED_TOKENS) + quest)
    model = EncoderDecoder(HyperParams(hidden_size=hidden), vocab,
                           build_tag_list([]), build_tag_list([]), init_seed=seed)
    prep = model.prepare(EncodedExample(
        source_roots=roots, source_features=[("", "", "O")] * source_window,
        answer_span=(0, 0), target_actions=[], reference_question=[]))
    return model, prep


def bench_decode(
    hidden: int = DEFAULT_HIDDEN,
    vocab_size: int = DEFAULT_BASELINE_VOCAB,
    source_window: int = DEFAULT_SOURCE_WINDOW,
    quest_size: int = DEFAULT_QUEST_SIZE,
    beam: int = DEFAULT_BEAM,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
) -> Dict:
    """Time one question of ``beam_search`` on both list sizes and report
    per-side medians plus the median of the per-pair ratios.  Raises
    :class:`RuntimeFailure` if a timed search stopped before ``steps``."""
    sizes = {"three_action": quest_size, "baseline": vocab_size}
    sides = {name: _model_and_source(size, hidden, source_window, seed)
             for name, size in sizes.items()}
    seconds: Dict[str, list] = {name: [] for name in sides}
    for pair in range(warmup + PAIRS):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for name in order:
            model, prep = sides[name]
            start = time.perf_counter()
            result = generate.beam_search(model, prep, beam_size=beam, max_len=steps)
            if pair >= warmup:
                seconds[name].append(time.perf_counter() - start)
                if result.steps < steps:
                    raise RuntimeFailure(
                        f"the {name} search stopped after {result.steps} of {steps} "
                        "beam steps, so the two sides did not do equal work")
    ratios = [base / short for short, base
              in zip(seconds["three_action"], seconds["baseline"])]
    report: Dict = {"hidden": hidden, "beam": beam, "steps": steps,
                    "warmup": warmup, "pairs": PAIRS}
    for name, size in sizes.items():
        median = float(np.median(seconds[name]))
        report[name] = {
            "support": {"copy": source_window, "quest": size, "tags": len(ALL_TYPES)},
            "per_question_median_s": median,
            "per_step_median_s": median / steps,
        }
    report["pair_ratios"] = ratios
    report["speedup_ratio"] = float(np.median(ratios))
    report["full_scale_reference"] = dict(FULL_SCALE_REFERENCE)
    return report
