"""Beam-search decoding over the copy / list-word / rewrite-tag action space.

Hypotheses accumulate the sum of outcome log-probabilities; the beam is
pruned on that sum, and the final hypothesis is selected by the
length-normalised score (sum divided by number of emitted outcomes, end
marker included), so long questions are not penalised for their length
alone.  A beam of one reduces to greedy decoding.

Structural masks keep the action grammar valid: the padding and
start-of-sequence outcomes are never emitted, and a rewrite tag may only
follow a word-producing action (never open the question, never follow
another tag).

Each step advances every live hypothesis at once, as one (k, d_h) batch
through :meth:`EncoderDecoder.step`, and scores all of its outcomes as one
row of :meth:`EncoderDecoder.outcome_mass`.  Log-probabilities are taken
with ``math.log`` and summed in float64.  Tie-break order: candidates with
equal sums keep the rank of the hypothesis they extend, then the column
order ``[source roots in first-occurrence order | other list words by id |
tags]``; a root copies its most-attended source position, the first on
ties; the final pick is the highest normalised score, a finished
hypothesis over an unfinished one, and then the earliest recorded
(finished ones in step and rank order, then the live beam by rank).

There is no early stop once every beam has ended: a hypothesis that emits
``<eos>`` is recorded and the beam refills from the remaining candidates,
and length-normalised scores are not monotone in length, so stopping early
could change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import SOS_ID, EncodedExample, Vocab, realize
from .model import EncoderDecoder, PreparedExample
from .morphology import ALL_TYPES, Morphology

_BLOCKED_WORDS = ("<pad>", "<sos>")
_EOS_WORD = "<eos>"


@dataclass(frozen=True)
class BeamResult:
    """One decoded hypothesis: its actions, normalised score, and status."""

    actions: tuple
    score: float
    finished: bool


def beam_search(
    model: EncoderDecoder,
    prep: PreparedExample,
    beam_size: Optional[int] = None,
    max_len: Optional[int] = None,
) -> BeamResult:
    """Decode one example; returns the best hypothesis under the
    length-normalised score."""
    k = beam_size if beam_size is not None else model.hyper.beam_size
    limit = max_len if max_len is not None else model.hyper.max_decode_len
    enc = model.encode(prep, masks=None)
    columns = model.outcome_columns(prep.roots)
    n_words = len(columns.words)
    n_cols = n_words + len(ALL_TYPES)
    eos_col = columns.words.index(_EOS_WORD)
    # Outcomes a hypothesis may extend with, before the tag rule; <eos>
    # ends it instead.
    extendable = np.array([w not in _BLOCKED_WORDS and w != _EOS_WORD
                           for w in columns.words] + [True] * len(ALL_TYPES))
    word_cols = np.arange(n_cols) < n_words

    # The live beam, best first: states as (k, d_h) rows, float64 log sums.
    s = enc["s0"][None, :]
    c = np.zeros((1, model.hyper.hidden_size), dtype=model.dtype)
    actions: list[tuple] = [()]
    log_sum = np.zeros(1)
    last_was_word = np.zeros(1, dtype=bool)
    finished: list[BeamResult] = []

    for _ in range(limit):
        if not actions:  # a beam of width 0 keeps nothing after step one
            break
        specs = [model.input_spec_for_action(a[-1], prep.roots) if a
                 else ("word", SOS_ID) for a in actions]
        state = model.step(enc, s, c, specs)
        mass = model.outcome_mass(state, columns)
        for h in np.flatnonzero(mass[:, eos_col] > 0.0).tolist():
            logp = float(log_sum[h]) + math.log(mass[h, eos_col])
            finished.append(BeamResult(
                actions=actions[h], score=logp / (len(actions[h]) + 1), finished=True))
        open_ = extendable & (word_cols | last_was_word[:, None]) & (mass > 0.0)
        flat = np.flatnonzero(open_)
        if flat.size == 0:
            break
        mass = mass.ravel()
        if flat.size > k:
            # np.log may differ from math.log by an ulp, so its scores only
            # find the cut: every candidate within a margin of it (far wider
            # than that error) is re-scored exactly below.
            with np.errstate(divide="ignore"):
                approx = np.repeat(log_sum, n_cols) + np.log(mass)
            approx[~open_.ravel()] = -np.inf
            cut = -np.partition(-approx, k - 1)[k - 1]
            flat = np.flatnonzero(approx >= cut - 1e-9 * (1.0 + abs(cut)))
        hyp_of = flat // n_cols
        exact = [float(log_sum[h]) + math.log(m)
                 for h, m in zip(hyp_of.tolist(), mass[flat].tolist())]
        # Stable: equal scores keep hypothesis rank, then column order.
        keep = sorted(range(flat.size), key=exact.__getitem__, reverse=True)[:k]
        keep_hyp = hyp_of[keep]
        keep_col = (flat[keep] % n_cols).tolist()
        p_copy = state["p_copy"]
        actions = [actions[h] + (columns.action(col, p_copy[h]),)
                   for h, col in zip(keep_hyp.tolist(), keep_col)]
        log_sum = np.array([exact[j] for j in keep])
        last_was_word = word_cols[keep_col]
        s, c = state["s"][keep_hyp], state["c"][keep_hyp]

    for h, acts in enumerate(actions):
        finished.append(BeamResult(
            actions=acts, score=float(log_sum[h]) / max(len(acts), 1), finished=False))
    return max(finished, key=lambda r: (r.score, r.finished))


def greedy(model: EncoderDecoder, prep: PreparedExample,
           max_len: Optional[int] = None) -> BeamResult:
    """Greedy decoding: a beam of exactly one."""
    return beam_search(model, prep, beam_size=1, max_len=max_len)


def generate_question(
    model: EncoderDecoder,
    example: EncodedExample,
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    beam_size: Optional[int] = None,
) -> str:
    """Decode an encoded example and realise the actions as a word string."""
    prep = model.prepare(example)
    result = beam_search(model, prep, beam_size=beam_size)
    return realize(list(result.actions), list(prep.roots), vocab, morphology)
